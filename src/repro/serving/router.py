"""Front-end request router for the simulated serving cluster.

The router is the piece of the fleet that turns N independent node worlds
(:class:`repro.serving.server.ServerSim` instances wrapped by
:mod:`repro.serving.cluster`) into one service.  It owns three policies:

* **Replica selection** — ``round_robin`` rotates a per-shard pointer
  over a shard's replicas; ``least_loaded`` picks the replica with the
  smallest load estimate (ties break to the lower node id, keeping
  selection deterministic).
* **Health** — a node that fails :attr:`HealthPolicy.eject_after`
  consecutive shard calls is *ejected* (no longer routable) and probed
  every :attr:`HealthPolicy.probe_interval_ms` until a probe finds it
  reachable again, at which point it is re-admitted with a clean slate.
  Any successful call also resets the consecutive-failure count.
* **Hedging** — when a shard call has been outstanding longer than a
  rolling quantile of recent call latencies (:class:`HedgePolicy`), the
  router issues a duplicate to another replica and takes whichever
  response lands first (first completion wins; the loser is counted as
  wasted work, never double-delivered).

Everything here is deterministic given the cluster seed: the router adds
no randomness of its own — pointers, failure counters, and latency
windows evolve purely from the (deterministic) event stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Dict, List, Optional, Sequence, Set

from ..errors import ConfigError
from .stats import SortedWindow

__all__ = [
    "HealthPolicy",
    "HealthTracker",
    "HedgePolicy",
    "LatencyWindow",
    "ROUTING_POLICIES",
    "Router",
]

#: Replica-selection policies the router knows.
ROUTING_POLICIES = ("round_robin", "least_loaded")


@dataclass(frozen=True)
class HealthPolicy:
    """Failure-detection and re-admission parameters of the router.

    ``eject_after`` consecutive failed calls to a node eject it from
    routing; an ejected node is probed every ``probe_interval_ms`` and
    re-admitted the first time a probe finds it reachable.
    """

    eject_after: int = 3
    probe_interval_ms: float = 50.0

    def __post_init__(self) -> None:
        if self.eject_after <= 0:
            raise ConfigError("ejection threshold must be positive")
        if self.probe_interval_ms <= 0:
            raise ConfigError("probe interval must be positive")


@dataclass(frozen=True)
class HedgePolicy:
    """When and how often to duplicate a straggling shard call.

    A hedge fires once a call has been outstanding for
    ``max(min_ms, q(quantile))`` where ``q`` is taken over the last
    ``window`` observed call latencies; each shard call issues at most
    ``max_hedges`` hedges.
    """

    quantile: float = 95.0
    min_ms: float = 1.0
    window: int = 128
    max_hedges: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.quantile <= 100.0:
            raise ConfigError("hedge quantile must be in (0, 100]")
        if self.min_ms <= 0:
            raise ConfigError("hedge floor must be positive")
        if self.window <= 0:
            raise ConfigError("hedge latency window must be positive")
        if self.max_hedges <= 0:
            raise ConfigError("hedge budget must be positive")


class LatencyWindow(SortedWindow):
    """Rolling window of observed shard-call latencies (simulated ms).

    Pure python and order-deterministic: the threshold depends only on
    the sequence of observed latencies, which the deterministic event
    loop fixes.  :meth:`quantile` takes numpy's default (linear) virtual
    index but interpolates with one formula,
    ``xs[lo] + (xs[hi] - xs[lo]) * frac``, where numpy switches to
    ``xs[hi] - (xs[hi] - xs[lo]) * (1 - frac)`` once ``frac >= 0.5``.  So
    it equals ``np.percentile`` to within an ulp or two, not bit for bit:
    over windows of 2-128 exponential values and 80 quantiles each, about
    1.5% of the results differ in the last bits.  Hedge fire times, and
    the reports that include them, depend on this exact formula.  The
    window keeps itself sorted as it changes, so a quantile costs no sort.
    """

    __slots__ = ()

    #: Record one completed call's latency; the oldest falls out once full.
    observe = SortedWindow.append

    def quantile(self, q: float) -> Optional[float]:
        """The q-th percentile of the window, or None while empty."""
        data = self.sorted
        if not data:
            return None
        rank = (len(data) - 1) * (q / 100.0)
        lo = int(rank)
        hi = min(lo + 1, len(data) - 1)
        frac = rank - lo
        return data[lo] + (data[hi] - data[lo]) * frac


class HealthTracker:
    """Per-node consecutive-failure counters and the ejected set."""

    def __init__(self, num_nodes: int, policy: HealthPolicy) -> None:
        if num_nodes <= 0:
            raise ConfigError("need at least one node")
        self.policy = policy
        #: Per-node consecutive-failure counts; read-only outside this
        #: class.  Non-zero for every ejected node: ejection needs
        #: ``eject_after >= 1`` failures, and whatever resets a count also
        #: re-admits the node.
        self.fails = [0] * num_nodes
        self._ejected: Set[int] = set()
        self.ejections = 0
        self.probes = 0

    def is_ejected(self, node: int) -> bool:
        """Whether the router currently refuses to route to ``node``."""
        return node in self._ejected

    def record_failure(self, node: int) -> bool:
        """Count one failed call; returns True if this ejects the node."""
        if node in self._ejected:
            return False
        self.fails[node] += 1
        if self.fails[node] >= self.policy.eject_after:
            self._ejected.add(node)
            self.ejections += 1
            return True
        return False

    def record_success(self, node: int) -> None:
        """A call succeeded: clean slate (also re-admits, belt-and-braces)."""
        self.fails[node] = 0
        self._ejected.discard(node)

    def record_probe(self, node: int, reachable: bool) -> bool:
        """Account one probe of an ejected node; True if re-admitted."""
        self.probes += 1
        if reachable:
            self.fails[node] = 0
            self._ejected.discard(node)
            return True
        return False


class Router:
    """Replica selection over a shard map, health- and policy-aware.

    ``loads[node]`` is a node's load estimate, read at every decision: the
    cluster passes its list of router-visible in-flight call counts and
    updates it in place.  ``least_loaded`` needs it; ``round_robin``
    ignores it.

    :meth:`eligible` lists the replicas a decision could have picked; an
    observed cluster run records its length next to each decision.
    """

    def __init__(
        self,
        policy: str,
        health: HealthTracker,
        loads: Optional[Sequence[float]] = None,
    ) -> None:
        if policy not in ROUTING_POLICIES:
            raise ConfigError(
                f"unknown routing policy {policy!r}; known: {ROUTING_POLICIES}"
            )
        if policy == "least_loaded" and loads is None:
            raise ConfigError("least_loaded routing needs a load estimator")
        self.policy = policy
        self.health = health
        self._loads = loads
        self._rr: Dict[int, int] = {}
        # The tracker's live ejected set: updated in place, never rebound.
        self._ejected = health._ejected
        self._round_robin = policy == "round_robin"

    def choose(
        self,
        shard: int,
        replicas: Sequence[int],
        tried: Container[int],
    ) -> Optional[int]:
        """Pick the replica for one shard-call attempt, or None.

        Never returns a node in ``tried`` (each attempt of one shard call
        goes to a distinct replica — this is what deduplicates hedges and
        bounds failover) nor an ejected node.  Returns None when no
        routable replica remains.
        """
        chosen: Optional[int] = None
        if self._round_robin:
            eligible = self.eligible(replicas, tried)
            if eligible:
                start = self._rr.get(shard, 0) % len(replicas)
                for k in range(len(replicas)):
                    node = replicas[(start + k) % len(replicas)]
                    if node in eligible:
                        self._rr[shard] = (start + k + 1) % len(replicas)
                        chosen = node
                        break
        else:
            # least_loaded: smallest load, the lower node id breaks ties.
            # With nothing tried and nothing ejected (every primary call
            # while all nodes are routable) no replica needs a membership
            # test.
            loads = self._loads
            ejected = self._ejected
            best = 0.0
            skip = tried or ejected
            for node in replicas:
                if skip and (node in tried or node in ejected):
                    continue
                load = loads[node]
                if chosen is None or load < best or (load == best and node < chosen):
                    chosen = node
                    best = load
        return chosen

    def eligible(self, replicas: Sequence[int], tried: Container[int]) -> List[int]:
        """The replicas neither tried nor ejected, in listed order."""
        ejected = self._ejected
        return [n for n in replicas if n not in tried and n not in ejected]
