"""Deterministic fault injection for the serving simulator.

A real DLRM fleet does not run on the happy path: cores get throttled or
taken offline, DRAM bandwidth is stolen by co-located jobs (the tiered
-memory placement studies show exactly this straggler pattern), load
spikes arrive, and a small fraction of batches land on pathological cache
state and run far past the mean.  :class:`FaultPlan` describes such a
scenario as a composition of declarative fault models that the serving
loop (:func:`repro.serving.server.simulate_server`) consults:

* :class:`CoreSlowdown` — one core's service times are multiplied by a
  factor inside a time window (thermal throttling, a noisy neighbour);
* :class:`CoreFailure` — one core serves nothing inside a window and
  *repairs* at its end (a crash-and-restart cycle);
* :class:`BandwidthDegradation` — every core's service time is multiplied
  inside a window (DRAM bandwidth contention hits the embedding stage
  fleet-wide);
* :class:`ArrivalBurst` — extra requests injected at a point in time (a
  load spike on top of the Poisson baseline);
* :class:`Stragglers` — a seeded fraction of requests draw a heavy-tail
  service multiplier (cold caches, page faults, slow-memory placement).

At fleet scale the failure domain is the *node*, not the core.  The
cluster layer (:mod:`repro.serving.cluster`) consults a
:class:`ClusterFaultPlan` composed of node-scoped models:

* :class:`NodeCrash` — a whole node is down in a window and repairs at
  its end; in-flight shard calls on it are lost (a hard kill, unlike
  :class:`CoreFailure`'s drain semantics);
* :class:`NodePartition` — the node keeps running but is unreachable:
  requests sent to it get no response until the partition heals;
* :class:`NodeSlow` — a persistently slow node: every service time on it
  is multiplied inside the window (bad host, thermal cap, noisy
  neighbour at node granularity).

Everything is deterministic: the plan owns a seed, and every random
quantity (straggler multipliers, retry jitter) derives from that seed and
the request index — never from event ordering — so the same plan and
workload produce identical per-request outcomes across runs and across
``--jobs`` process parallelism.  A ``FaultPlan()`` with no faults is
inert, and ``fault_plan=None`` keeps the serving loop on its original
byte-identical fast path; the same holds for ``ClusterFaultPlan()``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError

__all__ = [
    "ArrivalBurst",
    "BandwidthDegradation",
    "ClusterFaultPlan",
    "CoreFailure",
    "CoreSlowdown",
    "FaultPlan",
    "NodeCrash",
    "NodePartition",
    "NodeSlow",
    "NodeTenant",
    "Stragglers",
]

#: Sub-stream tags for the plan's derived random streams.
_STREAM_STRAGGLER = 1
_STREAM_RETRY = 2


@dataclass(frozen=True)
class CoreSlowdown:
    """One core's service times are multiplied by ``factor`` in a window."""

    core: int
    start_ms: float
    end_ms: float
    factor: float

    def __post_init__(self) -> None:
        if self.core < 0:
            raise ConfigError("core index must be non-negative")
        _check_window(self.start_ms, self.end_ms)
        _check_factor(self.factor, "slowdown factor")


@dataclass(frozen=True)
class CoreFailure:
    """One core is offline in ``[start_ms, end_ms)`` and repairs at the end.

    A failed core starts no new work; a request already running on it when
    the window opens completes normally (the modeled failure is a drain +
    restart, not a hard kill — in-flight state is not lost).
    """

    core: int
    start_ms: float
    end_ms: float

    def __post_init__(self) -> None:
        if self.core < 0:
            raise ConfigError("core index must be non-negative")
        _check_window(self.start_ms, self.end_ms)


@dataclass(frozen=True)
class BandwidthDegradation:
    """Every core's service time is multiplied by ``factor`` in a window."""

    start_ms: float
    end_ms: float
    factor: float

    def __post_init__(self) -> None:
        _check_window(self.start_ms, self.end_ms)
        _check_factor(self.factor, "bandwidth degradation factor")


@dataclass(frozen=True)
class ArrivalBurst:
    """``num_requests`` extra arrivals starting at ``start_ms``.

    The burst is evenly spaced at ``interarrival_ms`` (a spike, not a
    random stream) so its offered load is exact and reproducible.
    """

    start_ms: float
    num_requests: int
    interarrival_ms: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.start_ms) or self.start_ms < 0:
            raise ConfigError("burst start must be finite and non-negative")
        if self.num_requests <= 0:
            raise ConfigError("burst request count must be positive")
        if not math.isfinite(self.interarrival_ms) or self.interarrival_ms <= 0:
            raise ConfigError("burst inter-arrival time must be finite and positive")

    def arrivals(self) -> np.ndarray:
        """The burst's arrival timestamps."""
        return self.start_ms + self.interarrival_ms * np.arange(
            self.num_requests, dtype=float
        )


@dataclass(frozen=True)
class Stragglers:
    """A seeded fraction of requests draw a heavy-tail service multiplier.

    Each straggler's multiplier is ``multiplier`` when ``tail_alpha`` is 0,
    or ``multiplier * (1 + Pareto(tail_alpha))`` for a genuinely heavy
    tail (smaller alpha = heavier).
    """

    fraction: float
    multiplier: float
    tail_alpha: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ConfigError("straggler fraction must be in [0, 1]")
        _check_factor(self.multiplier, "straggler multiplier")
        if not math.isfinite(self.tail_alpha) or self.tail_alpha < 0.0:
            raise ConfigError("tail alpha must be finite and non-negative")


class FaultPlan:
    """A seeded, composable fault scenario for one serving simulation."""

    def __init__(self, faults: Sequence[object] = (), seed: int = 0) -> None:
        self.seed = int(seed)
        self.slowdowns: List[CoreSlowdown] = []
        self.failures: List[CoreFailure] = []
        self.bandwidth: List[BandwidthDegradation] = []
        self.bursts: List[ArrivalBurst] = []
        self.stragglers: List[Stragglers] = []
        for fault in faults:
            if isinstance(fault, CoreSlowdown):
                self.slowdowns.append(fault)
            elif isinstance(fault, CoreFailure):
                self.failures.append(fault)
            elif isinstance(fault, BandwidthDegradation):
                self.bandwidth.append(fault)
            elif isinstance(fault, ArrivalBurst):
                self.bursts.append(fault)
            elif isinstance(fault, Stragglers):
                self.stragglers.append(fault)
            else:
                raise ConfigError(
                    f"unknown fault model {type(fault).__name__!r}"
                )
        self._failure_windows: Dict[int, List[Tuple[float, float]]] = {}
        for failure in self.failures:
            self._failure_windows.setdefault(failure.core, []).append(
                (failure.start_ms, failure.end_ms)
            )
        for windows in self._failure_windows.values():
            windows.sort()
        # The finite window starts and ends, for steady_until.
        self._edges = sorted(
            {
                t
                for w in self.slowdowns + self.failures + self.bandwidth
                for t in (w.start_ms, w.end_ms)
                if t != math.inf
            }
        )

    @property
    def is_empty(self) -> bool:
        """Whether the plan injects nothing at all."""
        return not (
            self.slowdowns
            or self.failures
            or self.bandwidth
            or self.bursts
            or self.stragglers
        )

    # -- service-time perturbation ------------------------------------------

    def service_multiplier(self, core: int, t_ms: float) -> float:
        """Product of every slowdown active on ``core`` at time ``t_ms``."""
        factor = 1.0
        for slow in self.slowdowns:
            if slow.core == core and slow.start_ms <= t_ms < slow.end_ms:
                factor *= slow.factor
        for band in self.bandwidth:
            if band.start_ms <= t_ms < band.end_ms:
                factor *= band.factor
        return factor

    def straggler_multipliers(self, num_requests: int) -> np.ndarray:
        """Per-request heavy-tail multipliers (all 1.0 without stragglers).

        Drawn in one vectorized pass from a stream derived from the plan
        seed, so the multiplier of request *i* depends only on (seed, i) —
        identical across runs regardless of event ordering.
        """
        out = np.ones(num_requests)
        if not self.stragglers or num_requests == 0:
            return out
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, _STREAM_STRAGGLER])
        )
        for model in self.stragglers:
            hit = rng.random(num_requests) < model.fraction
            mult = np.full(num_requests, model.multiplier)
            if model.tail_alpha > 0:
                mult *= 1.0 + rng.pareto(model.tail_alpha, size=num_requests)
            out = np.where(hit, out * mult, out)
        return out

    def retry_jitter_stream(self) -> np.random.Generator:
        """The seeded generator the serving loop draws retry jitter from."""
        return np.random.default_rng(
            np.random.SeedSequence([self.seed, _STREAM_RETRY])
        )

    def steady_until(self, t_ms: float) -> float:
        """The next time after ``t_ms`` at which any slowdown, bandwidth or
        failure window starts or ends (``inf`` when none does).

        Until then every :meth:`service_multiplier`, :meth:`core_down` and
        :meth:`next_available` answer stays what it is at ``t_ms``, so the
        serving loop reads a plain plan's multipliers once per such span.
        Only this plan's own windows count: a subclass whose multiplier
        moves otherwise (a tenant plan's) is asked at every dispatch.
        """
        edges = self._edges
        k = bisect_right(edges, t_ms)
        return edges[k] if k < len(edges) else math.inf

    # -- core availability ---------------------------------------------------

    def core_down(self, core: int, t_ms: float) -> bool:
        """Whether ``core`` is inside a failure window at ``t_ms``."""
        for start, end in self._failure_windows.get(core, ()):
            if start <= t_ms < end:
                return True
        return False

    def next_available(self, core: int, t_ms: float) -> float:
        """Earliest time ``>= t_ms`` at which ``core`` may start work."""
        t = t_ms
        for start, end in self._failure_windows.get(core, ()):
            if start <= t < end:
                t = end
        return t

    # -- arrival perturbation ------------------------------------------------

    def inject_arrivals(
        self, arrivals_ms: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Merge burst arrivals into a sorted stream.

        Returns ``(merged_arrivals, injected_mask)`` where the mask marks
        burst-injected requests.  A stable mergesort keeps baseline
        requests ahead of injected ones at equal timestamps.
        """
        if not self.bursts:
            return arrivals_ms, np.zeros(arrivals_ms.size, dtype=bool)
        extra = np.concatenate([burst.arrivals() for burst in self.bursts])
        merged = np.concatenate([arrivals_ms, extra])
        mask = np.concatenate(
            [np.zeros(arrivals_ms.size, dtype=bool), np.ones(extra.size, dtype=bool)]
        )
        order = np.argsort(merged, kind="stable")
        return merged[order], mask[order]

    # -- reporting -----------------------------------------------------------

    def windows(self) -> List[Tuple[str, float, float, Dict[str, object]]]:
        """Every windowed fault as ``(name, start_ms, end_ms, attrs)``.

        Point-in-time models (bursts) report their active span; stragglers
        have no window and are omitted.  Used for trace-span emission.
        """
        out: List[Tuple[str, float, float, Dict[str, object]]] = []
        for slow in self.slowdowns:
            out.append(
                (
                    f"core_slowdown:{slow.core}",
                    slow.start_ms,
                    slow.end_ms,
                    {"core": slow.core, "factor": slow.factor},
                )
            )
        for failure in self.failures:
            out.append(
                (
                    f"core_failure:{failure.core}",
                    failure.start_ms,
                    failure.end_ms,
                    {"core": failure.core},
                )
            )
        for band in self.bandwidth:
            out.append(
                (
                    "bandwidth_degradation",
                    band.start_ms,
                    band.end_ms,
                    {"factor": band.factor},
                )
            )
        for burst in self.bursts:
            out.append(
                (
                    "arrival_burst",
                    burst.start_ms,
                    burst.start_ms + burst.num_requests * burst.interarrival_ms,
                    {"requests": burst.num_requests},
                )
            )
        return out


def _check_window(start_ms: float, end_ms: float) -> None:
    """A window ``[start_ms, end_ms)``: a finite start, an end after it
    (``+inf``: the fault is permanent).  A NaN would pass every ordered
    check here yet break every comparison an event loop makes."""
    if not math.isfinite(start_ms) or start_ms < 0:
        raise ConfigError("fault window start must be finite and non-negative")
    if math.isnan(end_ms) or end_ms <= start_ms:
        raise ConfigError("fault window must end after it starts")


def _check_factor(factor: float, what: str) -> None:
    """A service-time multiplier: finite and at least 1."""
    if not math.isfinite(factor) or factor < 1.0:
        raise ConfigError(f"{what} must be finite and >= 1")


# -- node-scoped faults (cluster layer) --------------------------------------


@dataclass(frozen=True)
class NodeCrash:
    """A whole node is down in ``[start_ms, end_ms)`` and repairs at the end.

    Unlike :class:`CoreFailure` this is a hard kill: shard calls in flight
    on the node when the window opens are lost (the router sees them fail
    at the crash instant), and the node restarts cold — empty queue, idle
    cores, degradation controller reset to its base level.
    """

    node: int
    start_ms: float
    end_ms: float

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ConfigError("node index must be non-negative")
        _check_window(self.start_ms, self.end_ms)


@dataclass(frozen=True)
class NodePartition:
    """A node is unreachable in ``[start_ms, end_ms)`` but keeps running.

    Calls *sent* into the partition get no response (they time out at the
    router); calls whose response would land inside the window are lost
    too.  Work already queued on the node keeps executing — the node is
    healthy, the network is not — so it rejoins warm when the partition
    heals.
    """

    node: int
    start_ms: float
    end_ms: float

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ConfigError("node index must be non-negative")
        _check_window(self.start_ms, self.end_ms)


@dataclass(frozen=True)
class NodeSlow:
    """Every service time on a node is multiplied by ``factor`` in a window.

    The node-granularity analogue of :class:`CoreSlowdown`: a bad host
    that answers, slowly — the case hedging exists for.
    """

    node: int
    start_ms: float
    end_ms: float
    factor: float

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ConfigError("node index must be non-negative")
        _check_window(self.start_ms, self.end_ms)
        _check_factor(self.factor, "node slowdown factor")


@dataclass(frozen=True)
class NodeTenant:
    """A foreign tenant co-located on one node in ``[start_ms, end_ms)``.

    Cluster-level scoping for the tenancy layer (:mod:`repro.tenants`):
    the node keeps answering, but every service drawn inside the window is
    inflated by ``factor`` — the aggregate slowdown the tenant's LLC and
    DRAM pressure imposes, as computed by the contention model.  Unlike
    :class:`NodeSlow` (an anonymous bad host) the window is named after
    the tenant, so a late request's ``fault_windows`` name the tenant;
    its miss cause is its critical path's dominant segment.
    """

    node: int
    start_ms: float
    end_ms: float
    factor: float
    tenant: str
    kind: str = "tenant"

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ConfigError("node index must be non-negative")
        _check_window(self.start_ms, self.end_ms)
        _check_factor(self.factor, "tenant slowdown factor")
        if not self.tenant:
            raise ConfigError("tenant name must be non-empty")


class ClusterFaultPlan:
    """A seeded, composable node-scoped fault scenario for one cluster run.

    Follows the same discipline as :class:`FaultPlan`: the plan owns a
    seed, every derived random stream comes from
    ``SeedSequence([seed, stream])``, and an empty plan is inert (the
    cluster's no-fault path is byte-identical with ``ClusterFaultPlan()``
    and with ``None``).
    """

    def __init__(self, faults: Sequence[object] = (), seed: int = 0) -> None:
        self.seed = int(seed)
        self.crashes: List[NodeCrash] = []
        self.partitions: List[NodePartition] = []
        self.slowdowns: List[NodeSlow] = []
        for fault in faults:
            if isinstance(fault, NodeCrash):
                self.crashes.append(fault)
            elif isinstance(fault, NodePartition):
                self.partitions.append(fault)
            elif isinstance(fault, (NodeSlow, NodeTenant)):
                # NodeTenant rides the slowdown machinery: slow_factor()
                # duck-types on .node/.start_ms/.end_ms/.factor.
                self.slowdowns.append(fault)
            else:
                raise ConfigError(
                    f"unknown node fault model {type(fault).__name__!r}"
                )
        self._crash_windows: Dict[int, List[Tuple[float, float]]] = {}
        for crash in self.crashes:
            self._crash_windows.setdefault(crash.node, []).append(
                (crash.start_ms, crash.end_ms)
            )
        for windows in self._crash_windows.values():
            windows.sort()
        self._partition_windows: Dict[int, List[Tuple[float, float]]] = {}
        for part in self.partitions:
            self._partition_windows.setdefault(part.node, []).append(
                (part.start_ms, part.end_ms)
            )
        for windows in self._partition_windows.values():
            windows.sort()

    @property
    def is_empty(self) -> bool:
        """Whether the plan injects nothing at all."""
        return not (self.crashes or self.partitions or self.slowdowns)

    # -- node availability ---------------------------------------------------

    def node_down(self, node: int, t_ms: float) -> bool:
        """Whether ``node`` is inside a crash window at ``t_ms``."""
        for start, end in self._crash_windows.get(node, ()):
            if start <= t_ms < end:
                return True
        return False

    def partitioned(self, node: int, t_ms: float) -> bool:
        """Whether ``node`` is unreachable (partitioned) at ``t_ms``."""
        for start, end in self._partition_windows.get(node, ()):
            if start <= t_ms < end:
                return True
        return False

    def unreachable(self, node: int, t_ms: float) -> bool:
        """Whether a call sent to ``node`` at ``t_ms`` cannot succeed."""
        return self.node_down(node, t_ms) or self.partitioned(node, t_ms)

    def slow_factor(self, node: int, t_ms: float) -> float:
        """Product of every slowdown active on ``node`` at time ``t_ms``."""
        factor = 1.0
        for slow in self.slowdowns:
            if slow.node == node and slow.start_ms <= t_ms < slow.end_ms:
                factor *= slow.factor
        return factor

    def crashes_for(self, node: int) -> List[Tuple[float, float]]:
        """Sorted crash windows of ``node`` (for scheduling crash events)."""
        return list(self._crash_windows.get(node, ()))

    # -- reporting -----------------------------------------------------------

    def windows(self) -> List[Tuple[str, float, float, Dict[str, object]]]:
        """Every node fault as ``(name, start_ms, end_ms, attrs)``."""
        out: List[Tuple[str, float, float, Dict[str, object]]] = []
        for crash in self.crashes:
            out.append(
                (
                    f"node_crash:{crash.node}",
                    crash.start_ms,
                    crash.end_ms,
                    {"node": crash.node},
                )
            )
        for part in self.partitions:
            out.append(
                (
                    f"node_partition:{part.node}",
                    part.start_ms,
                    part.end_ms,
                    {"node": part.node},
                )
            )
        for slow in self.slowdowns:
            tenant = getattr(slow, "tenant", None)
            if tenant is not None:
                out.append(
                    (
                        f"tenant_{slow.kind}:{slow.node}",
                        slow.start_ms,
                        slow.end_ms,
                        {
                            "node": slow.node,
                            "factor": slow.factor,
                            "tenant": tenant,
                        },
                    )
                )
            else:
                out.append(
                    (
                        f"node_slow:{slow.node}",
                        slow.start_ms,
                        slow.end_ms,
                        {"node": slow.node, "factor": slow.factor},
                    )
                )
        return out
