"""Fleet-scale serving: a sharded, replicated cluster of ServerSim nodes.

The paper's framing is at-scale CPU serving; this module builds the
distribution layer the single-box simulator lacks.  A cluster is a
composition of N independent node worlds — each one the same FIFO M/G/c
core model as :class:`repro.serving.server.ServerSim`, with its own
seeded service stream and its own :class:`DegradationController` — glued
together by a front-end :class:`repro.serving.router.Router`:

* **Sharding** — the embedding tables are split into ``num_shards``
  shards placed on nodes with a configurable replication factor
  (:class:`ShardMap`).  Placement is ``striped`` (shard *s* on nodes
  ``s, s+1, ... mod N``) or ``hotness``-aware: shards sorted by their
  Zipf popularity land on nodes sorted by cache capacity, so the hottest
  tables sit where the LLC is largest — the cluster-level analogue of the
  paper's cache-aware table placement.
* **Gather/reduce** — each request fans out into ``gather_width``
  hotness-weighted shard lookups, each a network call costing ``hop_ms``
  per direction (the NUMA/network-hop term); the request completes when
  its last shard call returns.
* **Resilience** — node-scoped faults (:class:`repro.serving.faults.
  ClusterFaultPlan`) crash, partition, or slow whole nodes.  The router
  ejects nodes after consecutive failures, probes them back in, fails
  gathers over to surviving replicas, and hedges stragglers; when a
  shard is unreachable on every replica the request is served *partial*
  (outcome ``degraded`` — degraded recall, not an error) rather than
  failed outright.

Determinism follows the repo-wide discipline: every random quantity
derives from ``SeedSequence([seed, stream, ...])`` — the gather pattern
from ``(seed, gather-stream)`` by request index, node service times from
``(seed, service-stream, node)`` by submission index — never from wall
clocks or thread timing, so a cluster run is byte-identical across
hosts, runs, and ``--jobs``.

A 1-node, replication-1 cluster with no node faults *is* the bare
server: :meth:`ClusterSim.run` delegates wholesale to ``ServerSim`` and
returns its byte-identical result (kept on :attr:`ClusterResult.local`),
which is what locks the ``ServerSim`` refactor against regressions.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, count, repeat
from operator import add
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple, TYPE_CHECKING

import numpy as np

from ..errors import ConfigError
from ..obs import hooks as obs_hooks
from ..obs import ids
from ..obs.fleet import FleetSpan, emit_spans, merge_spans
from ..obs.metrics import Histogram
from .faults import ClusterFaultPlan
from .router import HealthPolicy, HealthTracker, HedgePolicy, LatencyWindow, Router
from .router import ROUTING_POLICIES
from .server import (
    DEFAULT_SERVICE_CV,
    OUTCOME_COMPLETED,
    OUTCOME_SHED,
    ServerResult,
    ServerSim,
    lognormal_services,
)
from .stats import (
    check_arrivals,
    check_service,
    safe_mean,
    safe_percentile,
    safe_ratio,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .degradation import DegradationController

__all__ = [
    "CLUSTER_OUTCOME_NAMES",
    "ClusterConfig",
    "ClusterResult",
    "ClusterSim",
    "NodeStats",
    "PLACEMENTS",
    "ShardMap",
]

#: Shard-placement strategies.
PLACEMENTS = ("striped", "hotness")

#: Per-request cluster outcome codes (indices into CLUSTER_OUTCOME_NAMES).
CL_COMPLETED = 0
CL_DEGRADED = 1
CL_SHED = 2
CL_FAILED = 3
CLUSTER_OUTCOME_NAMES = ("completed", "degraded", "shed", "failed")
#: The request-log event that closes a request, by outcome code.
_LOG_KIND = ("complete", "degraded", "shed", "failed")

#: Sub-stream tags (disjoint from the FaultPlan streams).
_STREAM_GATHER = 101
_STREAM_NODE_SERVICE = 102

#: Event kinds, ordered so that at equal timestamps a crash kills
#: in-flight calls before their responses deliver, deliveries beat the
#: hedge timer (no hedging a call that just landed), and probes run last.
#: Arrivals never enter the event heap: they merge in through a pointer
#: into the sorted arrival list, ranked ``(t, _EV_ARRIVE)`` like the rest.
_EV_CRASH = 0
_EV_DELIVER = 1
_EV_ARRIVE = 2
_EV_HEDGE = 3
_EV_TIMEOUT = 4
_EV_PROBE = 5

#: Ranks after every event: the arrival pointer once arrivals run out.
_NO_ARRIVAL = (float("inf"), _EV_PROBE + 1, -1)

#: The event heap's floor, never popped: it ranks after every event and
#: after ``_NO_ARRIVAL``, so the loop ends once it is all that is left.
_END = (float("inf"), _EV_PROBE + 2, -1, None)

#: A shard call as its events carry it: (aid, slot, node, submit time,
#: is hedge), ``aid`` being the sequence number of its first event.
_Call = Tuple[int, int, int, float, bool]

#: The replicas a slot's first attempt has tried: none.
_NONE_TRIED: Tuple[int, ...] = ()

#: Row tags of an observed run's recording (see ``ClusterSim._export``):
#: ``(_ROW_ROUTE, slot, reason, t, chosen, eligible, load, q_ms)`` per
#: router decision, ``(_ROW_CALL, call)`` per call sent,
#: ``(_ROW_OK, call, t)`` per delivery, ``(_ROW_FAIL, call, t, cause)``
#: per call lost.
_ROW_ROUTE = 0
_ROW_CALL = 1
_ROW_OK = 2
_ROW_FAIL = 3

#: Node service draws are replenished in chunks (vectorized, still
#: consumed strictly in submission order so the stream is stable).
_DRAW_CHUNK = 1024


def _inf_percentile(finite_sorted_or_not: np.ndarray, total: int, q: float) -> float:
    """Linear-interpolation percentile of ``total`` values of which only
    ``finite_sorted_or_not`` are finite (the rest are ``+inf``).

    Matches ``np.percentile`` semantics without the NaN that interpolating
    between two infinities produces.  0.0 with no values at all.
    """
    if total <= 0:
        return 0.0
    finite = np.sort(np.asarray(finite_sorted_or_not, dtype=float))
    rank = (total - 1) * (q / 100.0)
    if rank > finite.size - 1:
        return float("inf")
    lo = int(rank)
    hi = min(lo + 1, finite.size - 1)
    frac = rank - lo
    return float(finite[lo] + (finite[hi] - finite[lo]) * frac)


@dataclass(frozen=True)
class ClusterConfig:
    """Topology, policies, and fault scenario of one cluster simulation.

    ``mean_service_ms`` is the mean of a *single shard call* on an
    unloaded, cache-rich node; the effective per-call mean grows with the
    shard/cache mismatch term ``1 + miss_penalty * hotness * (1 -
    cache_score)`` (hot shard on a cache-poor node pays the most, which
    is what makes hotness-aware placement win).

    ``controller_factory`` gives each node its degradation controller
    (a multi-node cluster's failure domain is the node: its faults are a
    :class:`ClusterFaultPlan`).
    """

    num_nodes: int = 4
    cores_per_node: int = 4
    mean_service_ms: float = 1.0
    service_cv: float = DEFAULT_SERVICE_CV
    num_shards: int = 8
    replication: int = 2
    gather_width: int = 2
    hop_ms: float = 0.1
    call_timeout_ms: float = 50.0
    deadline_ms: Optional[float] = None
    max_outstanding: Optional[int] = None
    placement: str = "striped"
    routing: str = "least_loaded"
    hedge: Optional[HedgePolicy] = None
    health: HealthPolicy = field(default_factory=HealthPolicy)
    faults: Optional[ClusterFaultPlan] = None
    hotness_alpha: float = 1.1
    miss_penalty: float = 1.0
    cache_scores: Optional[Tuple[float, ...]] = None
    partial_results: bool = True
    seed: int = 0
    label: Optional[str] = None
    controller_factory: Optional[Callable[[int], "DegradationController"]] = None

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ConfigError("need at least one node")
        if self.cores_per_node <= 0:
            raise ConfigError("need at least one core per node")
        # A NaN passes every ordered check below, and then every request
        # ends unresolved.
        for name in (
            "hop_ms", "call_timeout_ms", "deadline_ms", "hotness_alpha",
            "miss_penalty",
        ):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        check_service(self.mean_service_ms, self.service_cv)
        if self.num_shards <= 0:
            raise ConfigError("need at least one shard")
        if not 1 <= self.replication <= self.num_nodes:
            raise ConfigError(
                "replication factor must be in [1, num_nodes]"
            )
        if not 1 <= self.gather_width <= self.num_shards:
            raise ConfigError("gather width must be in [1, num_shards]")
        if self.hop_ms < 0:
            raise ConfigError("hop latency must be non-negative")
        if self.call_timeout_ms <= 0:
            raise ConfigError("call timeout must be positive")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ConfigError("deadline must be positive")
        if self.max_outstanding is not None and self.max_outstanding <= 0:
            raise ConfigError("outstanding bound must be positive")
        if self.placement not in PLACEMENTS:
            raise ConfigError(
                f"unknown placement {self.placement!r}; known: {PLACEMENTS}"
            )
        if self.routing not in ROUTING_POLICIES:
            raise ConfigError(
                f"unknown routing policy {self.routing!r}; "
                f"known: {ROUTING_POLICIES}"
            )
        if self.hotness_alpha <= 0:
            raise ConfigError("hotness alpha must be positive")
        if self.miss_penalty < 0:
            raise ConfigError("miss penalty must be non-negative")
        if self.cache_scores is not None:
            if len(self.cache_scores) != self.num_nodes:
                raise ConfigError("need one cache score per node")
            if any(not 0.0 <= s <= 1.0 for s in self.cache_scores):
                raise ConfigError("cache scores must be in [0, 1]")
        if self.faults is not None:
            # A window on a node the cluster does not have would never fire.
            plan = self.faults
            for fault in chain(plan.crashes, plan.partitions, plan.slowdowns):
                if fault.node >= self.num_nodes:
                    raise ConfigError(
                        f"{type(fault).__name__} on node {fault.node}, but "
                        f"the cluster has {self.num_nodes} nodes"
                    )

    @property
    def is_single_box(self) -> bool:
        """Whether :meth:`ClusterSim.run` delegates to a bare ServerSim."""
        return (
            self.num_nodes == 1
            and self.replication == 1
            and (self.faults is None or self.faults.is_empty)
        )

    def node_cache_scores(self) -> np.ndarray:
        """Per-node cache capacity scores (given, or linspace 1.0 -> 0.5)."""
        if self.cache_scores is not None:
            return np.asarray(self.cache_scores, dtype=float)
        if self.num_nodes == 1:
            return np.ones(1)
        return np.linspace(1.0, 0.5, self.num_nodes)


class ShardMap:
    """Shard -> replica placement plus the Zipf hotness profile."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        s = np.arange(config.num_shards, dtype=float)
        weights = 1.0 / np.power(s + 1.0, config.hotness_alpha)
        #: Normalized popularity per shard (shard id = popularity rank).
        self.hotness = weights / weights.sum()
        self.cache_scores = config.node_cache_scores()
        self.replicas: List[List[int]] = self._place()
        #: ``call_multipliers[shard][node]``, see :meth:`call_multiplier`.
        self.call_multipliers: List[List[float]] = self._multipliers()

    def _place(self) -> List[List[int]]:
        cfg = self.config
        if cfg.placement == "striped":
            return [
                [(s + r) % cfg.num_nodes for r in range(cfg.replication)]
                for s in range(cfg.num_shards)
            ]
        # Hotness-aware: walk shards hottest-first; each replica goes to
        # the least-loaded node (by assigned hotness), ties broken toward
        # the larger cache — so the hottest shards claim the cache-rich
        # nodes first and load stays balanced.
        order = sorted(
            range(cfg.num_shards), key=lambda s: (-self.hotness[s], s)
        )
        load = [0.0] * cfg.num_nodes
        placed: Dict[int, List[int]] = {}
        for shard in order:
            chosen: List[int] = []
            for _ in range(cfg.replication):
                node = min(
                    (n for n in range(cfg.num_nodes) if n not in chosen),
                    key=lambda n: (load[n], -self.cache_scores[n], n),
                )
                chosen.append(node)
                load[node] += float(self.hotness[shard]) / cfg.replication
            placed[shard] = chosen
        return [placed[s] for s in range(cfg.num_shards)]

    def call_multiplier(self, shard: int, node: int) -> float:
        """Service inflation of one shard call on one node.

        Hot shard on a cache-poor node pays ``1 + miss_penalty * hotness
        * (1 - cache_score)`` (relative hotness normalized so the hottest
        shard has weight 1).
        """
        return self.call_multipliers[shard][node]

    def _multipliers(self) -> List[List[float]]:
        top = self.hotness.max()
        penalty = self.config.miss_penalty
        table = []
        for shard in range(self.config.num_shards):
            rel = float(self.hotness[shard] / top)
            table.append(
                [1.0 + penalty * rel * (1.0 - float(score))
                 for score in self.cache_scores]
            )
        return table

    def gather_shards(self, num_requests: int) -> np.ndarray:
        """Per-request gather sets: ``(n, gather_width)`` distinct shards.

        Hotness-weighted sampling without replacement via Gumbel top-k,
        drawn in one vectorized pass from the gather stream so request
        *i*'s shards depend only on ``(seed, i)``.
        """
        cfg = self.config
        if cfg.gather_width == cfg.num_shards:
            return np.tile(
                np.arange(cfg.num_shards, dtype=np.int64), (num_requests, 1)
            )
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, _STREAM_GATHER])
        )
        # In place: the top-k of -(log h + g) without two full-size
        # temporaries (float addition commutes, so the bits are the same).
        keys = rng.gumbel(size=(num_requests, cfg.num_shards))
        keys += np.log(self.hotness)
        np.negative(keys, out=keys)
        top = np.argpartition(keys, cfg.gather_width - 1, axis=1)
        return np.ascontiguousarray(top[:, : cfg.gather_width])


@dataclass
class NodeStats:
    """Aggregate accounting of one node over a cluster run."""

    node: int
    calls: int
    lost_calls: int
    busy_ms: float
    utilization: float
    final_degradation_level: int


def _service_draws(config: ClusterConfig, node: int) -> Iterator[float]:
    """Node ``node``'s service times, in submission order.

    Drawn from ``(seed, service-stream, node)`` in vectorized chunks and
    consumed one at a time, so the stream does not depend on chunking.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, _STREAM_NODE_SERVICE, node])
    )

    def chunk() -> List[float]:
        return lognormal_services(
            config.mean_service_ms, _DRAW_CHUNK, rng, cv=config.service_cv
        ).tolist()

    return chain.from_iterable(iter(chunk, None))


@dataclass
class ClusterResult:
    """Cluster-level outcomes, latencies, and resilience accounting.

    ``latencies_ms`` covers **completed** (full-quality) requests;
    ``degraded_latencies_ms`` the partial results.  ``request_latency_ms``
    has one entry per offered request — the served latency for completed
    and degraded requests, ``+inf`` for shed/failed ones — which is what
    :meth:`effective_percentile` ranks so an unreplicated cluster losing
    a node shows an unbounded tail rather than a rosy
    completed-only percentile.
    """

    outcomes: np.ndarray
    latencies_ms: np.ndarray
    degraded_latencies_ms: np.ndarray
    request_latency_ms: np.ndarray
    num_nodes: int
    duration_ms: float
    deadline_ms: Optional[float]
    node_stats: List[NodeStats] = field(default_factory=list)
    failovers: int = 0
    hedges_issued: int = 0
    hedges_won: int = 0
    hedges_wasted: int = 0
    hedges_failed: int = 0
    ejections: int = 0
    probes: int = 0
    calls_failed: int = 0
    partition_failures: int = 0
    latency_hist: Optional[Histogram] = None
    local: Optional[ServerResult] = None

    # -- outcome accounting --------------------------------------------------

    def outcome_count(self, name: str) -> int:
        """Number of requests with the given cluster outcome name."""
        try:
            code = CLUSTER_OUTCOME_NAMES.index(name)
        except ValueError:
            raise ConfigError(
                f"unknown outcome {name!r}; known: {CLUSTER_OUTCOME_NAMES}"
            ) from None
        return int(np.count_nonzero(self.outcomes == code))

    @property
    def outcome_counts(self) -> Dict[str, int]:
        """Outcome name -> request count."""
        return {
            name: self.outcome_count(name) for name in CLUSTER_OUTCOME_NAMES
        }

    @property
    def offered_requests(self) -> int:
        return int(self.outcomes.size)

    # -- latency -------------------------------------------------------------

    def percentile(self, q: float) -> float:
        """Full-quality completion latency percentile; 0.0 when empty."""
        return safe_percentile(self.latencies_ms, q)

    @property
    def p50_ms(self) -> float:
        return self.percentile(50.0)

    @property
    def p95_ms(self) -> float:
        return self.percentile(95.0)

    @property
    def p99_ms(self) -> float:
        return self.percentile(99.0)

    @property
    def mean_ms(self) -> float:
        return safe_mean(self.latencies_ms)

    def effective_percentile(self, q: float) -> float:
        """Served-latency percentile over **all** offered requests.

        Unserved requests (shed, failed) rank as ``+inf``: a cluster that
        fails 6% of its requests has an infinite effective p95, which is
        the honest availability reading.  Degraded (partial) responses
        count at their latency — the service answered, with reduced
        recall.
        """
        finite = self.request_latency_ms[np.isfinite(self.request_latency_ms)]
        return _inf_percentile(finite, self.offered_requests, q)

    def quality_percentile(self, q: float) -> float:
        """Full-quality latency percentile over **all** offered requests.

        Every request that was not completed in full — degraded, shed, or
        failed — ranks as ``+inf``.  This is the SLA-grade metric: an
        unreplicated cluster that loses a node and serves 20% partials
        has an infinite quality p95 even though its survivors were fast.
        """
        return _inf_percentile(self.latencies_ms, self.offered_requests, q)

    @property
    def goodput(self) -> float:
        """Fraction of offered requests completed *fully* within deadline.

        Degraded (partial) results keep the service up but do not count
        as good — goodput is the paper-grade quality metric.
        """
        if self.deadline_ms is None:
            good = self.outcome_count("completed")
        else:
            good = int(
                np.count_nonzero(self.latencies_ms <= self.deadline_ms)
            )
        return safe_ratio(good, self.offered_requests)

    @property
    def mean_utilization(self) -> float:
        """Mean per-node utilization over the run."""
        return safe_mean(
            np.array([s.utilization for s in self.node_stats])
            if self.node_stats
            else np.empty(0)
        )


class ClusterSim:
    """The cluster event loop: router + N node worlds + fault plan."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.shard_map = ShardMap(config)

    # -- single-box delegation ----------------------------------------------

    def _run_local(
        self, arrivals_ms: np.ndarray, rng: np.random.Generator
    ) -> ClusterResult:
        cfg = self.config
        sim = ServerSim(
            mean_service_ms=cfg.mean_service_ms,
            num_cores=cfg.cores_per_node,
            service_cv=cfg.service_cv,
            controller=(
                cfg.controller_factory(0)
                if cfg.controller_factory is not None
                else None
            ),
            label=cfg.label,
        )
        local = sim.run(arrivals_ms, rng)
        n = local.offered_requests
        outcomes = np.zeros(n, dtype=np.int64)
        request_latency = np.full(n, np.inf)
        if local.outcomes is None:
            outcomes[:] = CL_COMPLETED
            request_latency[:] = local.latencies_ms
        else:
            outcomes[local.outcomes == OUTCOME_COMPLETED] = CL_COMPLETED
            outcomes[local.outcomes == OUTCOME_SHED] = CL_SHED
            timed_out = ~np.isin(
                local.outcomes, (OUTCOME_COMPLETED, OUTCOME_SHED)
            )
            outcomes[timed_out] = CL_FAILED
            request_latency[local.outcomes == OUTCOME_COMPLETED] = (
                local.latencies_ms
            )
        duration = (
            float(arrivals_ms[-1] - arrivals_ms[0]) if n > 1 else 0.0
        )
        stats = [
            NodeStats(
                node=0,
                calls=int(local.latencies_ms.size),
                lost_calls=0,
                busy_ms=float(local.services_ms.sum()),
                utilization=local.utilization,
                final_degradation_level=local.final_degradation_level,
            )
        ]
        return ClusterResult(
            outcomes=outcomes,
            latencies_ms=local.latencies_ms,
            degraded_latencies_ms=np.empty(0),
            request_latency_ms=request_latency,
            num_nodes=1,
            duration_ms=duration,
            deadline_ms=(
                cfg.deadline_ms
                if cfg.deadline_ms is not None
                else local.deadline_ms
            ),
            node_stats=stats,
            latency_hist=local.latency_hist,
            local=local,
        )

    # -- the cluster event loop ----------------------------------------------

    def run(
        self,
        arrivals_ms: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> ClusterResult:
        """Simulate the cluster against one arrival process.

        ``rng`` is consumed only on the single-box delegation path (so a
        1-node cluster matches ``simulate_server`` byte for byte); the
        multi-node loop draws everything from the config seed's streams.
        """
        check_arrivals(arrivals_ms)
        cfg = self.config
        if cfg.is_single_box:
            if rng is None:
                rng = np.random.default_rng(
                    np.random.SeedSequence([cfg.seed, _STREAM_NODE_SERVICE, 0])
                )
            return self._run_local(arrivals_ms, rng)
        return self._run_cluster(arrivals_ms)

    def _run_cluster(self, arrivals_ms: np.ndarray) -> ClusterResult:
        """The multi-node event loop, on flat state.

        Slot ``i * gather_width + k`` is request *i*'s *k*-th shard lookup;
        slot and request state lives in parallel lists indexed by those
        ids, and each shard call travels in its events as one tuple.  Node
        core heaps, service streams and controllers are stepped inline.
        Arrivals merge with the event heap through a pointer, ranked as if
        they had been pushed: crashes hold sequence numbers ``0..C-1``,
        arrivals ``C..C+n-1``, and events pushed while running count on
        from ``C+n``, so every tie breaks the same way.

        The common case costs least: a primary call routed with nothing
        tried or ejected to a plain node (no fault window, no controller)
        that delivers within ``quiet_ms`` pushes one event and arms no
        timer, and its delivery touches no fault state.
        """
        cfg = self.config
        plan = cfg.faults if cfg.faults is not None else ClusterFaultPlan()
        n = int(arrivals_ms.size)
        num_nodes = cfg.num_nodes
        width = cfg.gather_width
        hop = cfg.hop_ms
        call_timeout = cfg.call_timeout_ms
        probe_every = cfg.health.probe_interval_ms
        max_outstanding = cfg.max_outstanding
        hedge = cfg.hedge
        arrivals: List[float] = np.asarray(arrivals_ms, dtype=float).tolist()
        shards_of = self.shard_map.gather_shards(n)
        slot_shard: List[int] = shards_of.ravel().tolist()
        replicas = self.shard_map.replicas
        multipliers = self.shard_map.call_multipliers

        # -- nodes ----------------------------------------------------------
        # Per node, a heap of its cores' free-at times.
        cores = [[0.0] * cfg.cores_per_node for _ in range(num_nodes)]
        draws = [_service_draws(cfg, node) for node in range(num_nodes)]
        factory = cfg.controller_factory
        controllers = [
            factory(node) if factory is not None else None
            for node in range(num_nodes)
        ]
        # Per node, (completion, latency) of the calls its controller has
        # not seen yet: drained up to each new call's start, so control
        # decisions only ever see the past.
        pending: List[List[Tuple[float, float]]] = [[] for _ in range(num_nodes)]
        lost_calls = [0] * num_nodes
        # Per node, the service time of each call it ran, in order.
        served: List[List[float]] = [[] for _ in range(num_nodes)]
        # Fault flags: the plan is asked about a node only for the kinds of
        # fault window that node has.
        crash_windows = [plan.crashes_for(node) for node in range(num_nodes)]
        may_crash = [bool(windows) for windows in crash_windows]
        crash_starts = [
            [start for start, _ in windows] for windows in crash_windows
        ]
        partitioned_nodes = {part.node for part in plan.partitions}
        may_partition = [node in partitioned_nodes for node in range(num_nodes)]
        slowed_nodes = {slow.node for slow in plan.slowdowns}
        may_slow = [node in slowed_nodes for node in range(num_nodes)]
        # A node with none of these is plain: its calls skip every check.
        quirky = [
            may_crash[node] or may_partition[node] or may_slow[node]
            or factory is not None
            for node in range(num_nodes)
        ]
        node_down = plan.node_down
        partitioned = plan.partitioned
        slow_factor = plan.slow_factor
        # Per crashable node, aid -> (completion, call) of the calls in
        # flight on it that a crash may kill, in submission order.
        on_node: List[Dict[int, Tuple[float, _Call]]] = [
            {} for _ in range(num_nodes)
        ]

        health = HealthTracker(num_nodes, cfg.health)
        # Least-loaded routing sees only what a real front end sees: the
        # number of calls it has sent each node and not yet heard back
        # about (least-outstanding-requests), never node internals.
        inflight = [0] * num_nodes
        router = Router(cfg.routing, health, loads=inflight)
        choose = router.choose
        fails = health.fails
        window = LatencyWindow(hedge.window) if hedge is not None else None
        max_hedges = hedge.max_hedges if hedge is not None else 0
        hedge_min = hedge.min_ms if hedge is not None else 0.0
        window_size = hedge.window if hedge is not None else 0
        # The window's ring and sorted copy, updated inline on delivery; the
        # hedge delay max(min_ms, quantile) is computed only where it is
        # read, and there is nothing to hedge against while ``xs`` is empty.
        # The ring is bounded at ``window_size``: once ``window_full``, an
        # append drops ``ring[0]``.
        ring = window._ring if window is not None else None
        xs: List[float] = window.sorted if window is not None else []
        window_full = False
        # A call on a plain node that delivers within this long of its
        # submission neither times out nor arms a hedge timer.
        quiet_ms = (
            min(call_timeout, hedge_min) if hedge is not None else call_timeout
        )

        # Observed runs append one row per router decision and per call
        # sent, delivered or lost, in loop order; the request log and the
        # fleet span tree are built from them after the loop
        # (:meth:`_export`).  None with hooks off: one is-None branch per
        # recording site.
        obs = obs_hooks.active()
        rows: Optional[List[tuple]] = [] if obs is not None else None
        eligible = router.eligible
        # (start, completion, slowdown) of the calls that reached a node.
        att_timing: Dict[int, Tuple[float, float, float]] = {}

        def route_row(
            sid: int, reason: str, now: float, target: Optional[int],
            tried, q_ms: Optional[float] = None,
        ) -> None:
            """Record one router decision with what it saw: how many
            replicas were eligible and the chosen node's load."""
            rows.append((
                _ROW_ROUTE, sid, reason, now, target,
                len(eligible(replicas[slot_shard[sid]], tried)),
                inflight[target] if target is not None else None, q_ms,
            ))

        # -- requests -------------------------------------------------------
        # A request's outcome follows from its missing shards once it is
        # closed (every admitted request is); only shedding is recorded.
        shed: List[int] = []
        end_ms = [0.0] * n
        req_remaining = [width] * n
        req_missing = [0] * n
        outstanding_requests = 0
        # A request's outcome code, by its number of missing shards.
        outcome_of = [CL_COMPLETED] + [
            CL_DEGRADED if missing < width and cfg.partial_results else CL_FAILED
            for missing in range(1, width + 1)
        ]

        # -- slots: slot i * width + k is request i's k-th shard lookup -----
        num_slots = n * width
        # Replicas tried so far: None until the first call, and None again
        # once the slot is settled (a slot is settled exactly when it has
        # had a call and its list is gone).
        slot_tried: List[Optional[List[int]]] = [None] * num_slots
        # Written only on the rare paths: hedges issued, and failed
        # attempts of an unsettled slot.
        slot_hedges: Dict[int, int] = {}
        slot_dead: Dict[int, int] = {}

        # -- attempts: one _Call per shard call submitted --------------------
        # The calls something other than their delivery may end: None while
        # live on a node that may crash, the failure a call is doomed to
        # (known at submission), False once dead.  A call not in here is
        # live, and its delivery is the only event that names it.
        att_fate: Dict[int, object] = {}

        failovers = hedges_issued = hedges_won = hedges_wasted = 0
        hedges_failed = calls_failed = partition_failures = 0

        events: List[tuple] = []
        for node in range(num_nodes):
            for start, end in crash_windows[node]:
                events.append((start, _EV_CRASH, len(events), (node, end)))
        seq = count(len(events) + n)
        events.append(_END)
        heapq.heapify(events)
        heappush = heapq.heappush
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace

        def submit(sid: int, shard: int, node: int, now: float, is_hedge: bool) -> None:
            """Send slot ``sid``'s call for ``shard`` to ``node`` at ``now``.

            The caller has already listed ``node`` in the slot's tried
            replicas.  A plain node's call runs straight through here; a
            node with fault windows or a controller takes
            :func:`submit_quirky`.
            """
            aid = next(seq)
            call = (aid, sid, node, now, is_hedge)
            inflight[node] += 1
            if rows is not None:
                rows.append((_ROW_CALL, call))
            if quirky[node]:
                submit_quirky(call, shard)
                return
            # On the node: FIFO onto the earliest-free core.
            t_work = now + hop
            node_cores = cores[node]
            free_at = node_cores[0]
            start = free_at if free_at > t_work else t_work
            service = next(draws[node]) * multipliers[shard][node]
            completion = start + service
            heapreplace(node_cores, completion)
            served[node].append(service)
            if rows is not None:
                att_timing[aid] = (start, completion, 1.0)
            deliver = completion + hop
            heappush(events, (deliver, _EV_DELIVER, aid, call))
            if deliver > now + quiet_ms:
                arm(call, deliver, False)

        def submit_quirky(call: _Call, shard: int) -> None:
            """:func:`submit` on a node that may crash, be partitioned or
            slowed, or has a controller: each factor it cannot have is
            skipped."""
            aid, _, node, now, _ = call
            if may_crash[node] and node_down(node, now):
                # Connection refused: the router learns at one hop.
                att_fate[aid] = "node_fault"
                heappush(events, (now + hop, _EV_DELIVER, aid, call))
                return
            if may_partition[node] and partitioned(node, now):
                # Swallowed by the partition: only the timeout resolves it.
                att_fate[aid] = "partition"
                heappush(events, (now + call_timeout, _EV_TIMEOUT, aid, call))
                return
            t_work = now + hop
            ctl = controllers[node]
            if ctl is not None:
                done_heap = pending[node]
                while done_heap and done_heap[0][0] <= t_work:
                    done, latency = heappop(done_heap)
                    ctl.observe(done, latency)
                scale = ctl.scale()
            node_cores = cores[node]
            free_at = node_cores[0]
            start = free_at if free_at > t_work else t_work
            # draw * multiplier * slowdown * scale, left to right.
            service = next(draws[node]) * multipliers[shard][node]
            slow = 1.0
            if may_slow[node]:
                slow = slow_factor(node, start)
                service *= slow
            if ctl is not None:
                service *= scale
            completion = start + service
            heapreplace(node_cores, completion)
            served[node].append(service)
            if ctl is not None:
                heappush(done_heap, (completion, completion - t_work))
            may_die = False
            if may_crash[node]:
                # Only a crash starting before the call completes kills it.
                starts = crash_starts[node]
                k = bisect_left(starts, now)
                may_die = k < len(starts) and starts[k] < completion
                if may_die:
                    on_node[node][aid] = (completion, call)
                    att_fate[aid] = None  # live, but a crash may end it
            if rows is not None:
                att_timing[aid] = (start, completion, slow)
            deliver = completion + hop
            if may_partition[node] and partitioned(node, deliver):
                # The response would land inside a partition window: lost.
                att_fate[aid] = "partition"
                heappush(events, (now + call_timeout, _EV_TIMEOUT, aid, call))
                return
            heappush(events, (deliver, _EV_DELIVER, aid, call))
            arm(call, deliver, may_die)

        def arm(call: _Call, deliver: float, may_die: bool) -> None:
            """The timers of a call due at ``deliver``: its timeout if it is
            late, and its slot's hedge.

            A hedge timer due at or after a delivery nothing can fail would
            find its slot settled, so it is never pushed; the delay is at
            least min_ms, so now + min_ms >= deliver rules it out unread.
            :func:`submit` skips this for a plain node's call due within
            ``quiet_ms``, which can arm neither.
            """
            aid, sid, _, now, is_hedge = call
            late = deliver > now + call_timeout
            if late:
                att_fate[aid] = "timeout"
                heappush(
                    events, (now + call_timeout, _EV_TIMEOUT, next(seq), call)
                )
            if xs and not is_hedge and (
                late or may_die or now + hedge_min < deliver
            ):
                q = window.quantile(hedge.quantile)
                fire = now + (q if q > hedge_min else hedge_min)
                if late or may_die or fire < deliver:
                    heappush(events, (fire, _EV_HEDGE, next(seq), sid))

        def fail(call: _Call, now: float, cause: str) -> None:
            """Live ``call`` is dead: fail over, or lose its shard."""
            nonlocal calls_failed, partition_failures, hedges_failed, failovers
            aid, sid, node, _, is_hedge = call
            att_fate[aid] = False
            if may_crash[node]:
                on_node[node].pop(aid, None)
            inflight[node] -= 1
            calls_failed += 1
            if rows is not None:
                rows.append((_ROW_FAIL, call, now, cause))
            if cause == "partition":
                partition_failures += 1
            if health.record_failure(node):
                heappush(
                    events, (now + probe_every, _EV_PROBE, next(seq), node)
                )
            if is_hedge:
                hedges_failed += 1  # however its slot ends up
            tried = slot_tried[sid]
            if tried is None:  # settled
                return
            # An unsettled slot's attempts went to distinct nodes in ``tried``
            # and none has delivered, so those not dead still race.
            dead = slot_dead[sid] = slot_dead.get(sid, 0) + 1
            if len(tried) > dead:
                return
            shard = slot_shard[sid]
            target = choose(shard, replicas[shard], tried)
            if rows is not None:
                route_row(sid, "failover", now, target, tried)
            if target is not None:
                failovers += 1
                tried.append(target)
                submit(sid, shard, target, now, False)
                return
            # No replica left: the shard is unreachable for this request.
            slot_tried[sid] = None
            req = sid // width
            req_missing[req] += 1
            req_remaining[req] -= 1
            if not req_remaining[req]:
                close_request(req, now)

        def close_request(req: int, now: float) -> None:
            """Every slot of ``req`` is settled: record its outcome."""
            nonlocal outstanding_requests
            end_ms[req] = now
            outstanding_requests -= 1

        # -- main loop -----------------------------------------------------
        # The arrival pointer: (time, _EV_ARRIVE, request) per request, then
        # _NO_ARRIVAL.  It never ties an event: no event has _EV_ARRIVE.
        arrival_keys = chain(
            zip(arrivals, repeat(_EV_ARRIVE), range(n)), (_NO_ARRIVAL,)
        )
        next_arrival = next(arrival_keys)
        while True:
            if events[0] < next_arrival:
                now, kind, _, payload = heappop(events)
            elif next_arrival is not _NO_ARRIVAL:
                now, _, i = next_arrival
                next_arrival = next(arrival_keys)
                if (
                    max_outstanding is not None
                    and outstanding_requests >= max_outstanding
                ):
                    shed.append(i)
                    end_ms[i] = now
                    continue
                outstanding_requests += 1
                first = i * width
                for sid in range(first, first + width):
                    shard = slot_shard[sid]
                    target = choose(shard, replicas[shard], _NONE_TRIED)
                    if rows is not None:
                        route_row(sid, "primary", now, target, _NONE_TRIED)
                    if target is not None:
                        slot_tried[sid] = [target]
                        submit(sid, shard, target, now, False)
                        continue
                    req_missing[i] += 1
                    req_remaining[i] -= 1
                    if not req_remaining[i]:
                        close_request(i, now)
                continue
            else:
                break

            if kind == _EV_DELIVER:
                aid, sid, node, submitted, is_hedge = payload
                if aid in att_fate:
                    state = att_fate[aid]
                    if state is not None:
                        # Dead, or "node_fault": a late call times out first.
                        if state:
                            fail(payload, now, state)
                        continue
                    on_node[node].pop(aid, None)
                inflight[node] -= 1
                if fails[node]:  # else healthy: nothing to reset
                    health.record_success(node)
                latency = now - submitted
                if ring is not None:
                    if window_full:
                        del xs[bisect_left(xs, ring[0])]
                    else:
                        window_full = len(ring) == window_size - 1
                    ring.append(latency)
                    insort(xs, latency)
                if rows is not None:
                    rows.append((_ROW_OK, payload, now))
                if slot_tried[sid] is None:  # settled
                    if is_hedge:
                        hedges_wasted += 1
                    continue
                slot_tried[sid] = None
                if is_hedge:
                    hedges_won += 1
                req = sid // width
                req_remaining[req] -= 1
                if not req_remaining[req]:
                    close_request(req, now)
            elif kind == _EV_HEDGE:
                sid = payload
                hedges = slot_hedges.get(sid, 0) + 1
                tried = slot_tried[sid]
                if tried is None or hedges > max_hedges:
                    continue
                shard = slot_shard[sid]
                target = choose(shard, replicas[shard], tried)
                if rows is not None:
                    # q_ms: the latency-window quantile the hedge delay was
                    # racing (the fire-time estimate of the arming-time
                    # value) — lets the what-if engine re-time hedges under
                    # a different floor.
                    route_row(
                        sid, "hedge", now, target, tried,
                        window.quantile(hedge.quantile),
                    )
                if target is None:
                    continue
                slot_hedges[sid] = hedges
                hedges_issued += 1
                tried.append(target)
                submit(sid, shard, target, now, True)
                if hedges < max_hedges:
                    q = window.quantile(hedge.quantile)
                    fire = now + (q if q > hedge_min else hedge_min)
                    heappush(events, (fire, _EV_HEDGE, next(seq), sid))
            elif kind == _EV_TIMEOUT:
                state = att_fate[payload[0]]  # only doomed calls time out
                if state is not False:
                    fail(payload, now, state)
            elif kind == _EV_CRASH:
                node, until = payload
                killed = list(on_node[node].items())
                on_node[node].clear()
                lost_calls[node] += sum(
                    1 for _, (done, _) in killed if done > now
                )
                for _, (done, call) in killed:
                    if done > now:  # else the response already left the node
                        fail(call, now, "node_fault")
                cores[node] = [until] * cfg.cores_per_node
                pending[node] = []
                if factory is not None:
                    # The restarted process starts at the base level; the
                    # old controller's history dies with the node.
                    controllers[node] = factory(node)
            else:  # _EV_PROBE
                node = payload
                if not health.is_ejected(node):
                    continue
                reachable = not plan.unreachable(node, now)
                if not health.record_probe(node, reachable):
                    heappush(
                        events, (now + probe_every, _EV_PROBE, next(seq), node)
                    )

        # -- aggregate ------------------------------------------------------
        outcome_codes = np.array(outcome_of, dtype=np.int64)[
            np.array(req_missing, dtype=np.int64)
        ]
        outcome_codes[shed] = CL_SHED
        ends = np.array(end_ms)
        completed = outcome_codes == CL_COMPLETED
        degraded = outcome_codes == CL_DEGRADED
        latencies = (ends - arrivals_ms)[completed]
        degraded_lat = (ends - arrivals_ms)[degraded]
        request_latency = np.full(n, np.inf)
        request_latency[completed] = latencies
        request_latency[degraded] = degraded_lat
        duration = float(max(ends.max(), arrivals_ms[-1]) - arrivals_ms[0])
        # A running total in call order (``sum`` may compensate rounding).
        busy = [reduce(add, services, 0.0) for services in served]
        node_stats = [
            NodeStats(
                node=node,
                calls=len(served[node]),
                lost_calls=lost_calls[node],
                busy_ms=busy[node],
                utilization=safe_ratio(
                    busy[node], cfg.cores_per_node * duration
                ),
                final_degradation_level=(
                    controllers[node].level
                    if controllers[node] is not None
                    else 0
                ),
            )
            for node in range(num_nodes)
        ]
        result = ClusterResult(
            outcomes=outcome_codes,
            latencies_ms=latencies,
            degraded_latencies_ms=degraded_lat,
            request_latency_ms=request_latency,
            num_nodes=num_nodes,
            duration_ms=duration,
            deadline_ms=cfg.deadline_ms,
            node_stats=node_stats,
            failovers=failovers,
            hedges_issued=hedges_issued,
            hedges_won=hedges_won,
            hedges_wasted=hedges_wasted,
            hedges_failed=hedges_failed,
            ejections=health.ejections,
            probes=health.probes,
            calls_failed=calls_failed,
            partition_failures=partition_failures,
        )
        hist = Histogram()
        hist.observe_many(latencies)
        result.latency_hist = hist
        run = None
        if rows is not None:
            run = self._export(
                rows, att_timing, obs, plan, arrivals, end_ms, shed,
                outcome_codes.tolist(), req_missing, slot_shard,
            )
        self._publish(result, plan, obs, run)
        return result

    def _export(
        self,
        rows: List[tuple],
        att_timing: Dict[int, Tuple[float, float, float]],
        obs,
        plan: ClusterFaultPlan,
        arrivals: List[float],
        end_ms: List[float],
        shed: List[int],
        outcomes: List[int],
        req_missing: List[int],
        slot_shard: List[int],
    ):
        """Build an observed run's request log and fleet span tree.

        One pass over the loop's rows (see ``_ROW_ROUTE``) replays each
        request in loop order: a span per request, gather slot, router
        decision and call, and, with a request log, the request's
        events and tallies, handed to the log as columns.  A slot
        settles on its first delivery (the winner) or on a primary or
        failover decision that found no replica; a request closes when
        its last slot settles.  Returns the run's
        :class:`RunLog`, or None when the observation holds no request
        log.
        """
        cfg = self.config
        n = len(arrivals)
        width = cfg.gather_width
        hop = cfg.hop_ms
        policy = cfg.routing
        label = cfg.label if cfg.label else "cluster"
        run = (
            obs.requests.start_run(label=label, deadline_ms=cfg.deadline_ms)
            if obs.requests is not None
            else None
        )
        logged = run is not None

        # The span tree: router-side spans in one list, attempts per node.
        run_index = run.index if logged else 0
        roots = [
            FleetSpan(ids.request_id(run_index, i), None, f"req[{i}]",
                      "request", None, t, t)
            for i, t in enumerate(arrivals)
        ]
        router_spans: List[FleetSpan] = list(roots)
        node_spans: Dict[int, List[FleetSpan]] = {}
        gathers: List[Optional[FleetSpan]] = [None] * (n * width)
        routes_of = [0] * (n * width)
        attempts_of = [0] * (n * width)
        attempts: Dict[int, FleetSpan] = {}
        remaining = [width] * n

        # The request log: its events (sheds first; only each request's
        # own order matters, and first arrivals are implicit) and
        # per-request tallies.
        ev_req: List[int] = []
        ev_kind: List[str] = []
        ev_t: List[float] = []
        ev_attrs: List[Dict[str, object]] = []
        for i in shed:
            roots[i].attrs = {"outcome": "shed", "outcome_ms": float(arrivals[i])}
            ev_req.append(i)
            ev_kind.append("shed")
            ev_t.append(arrivals[i])
            # Admission sheds only at the bound, so the depth is the bound.
            ev_attrs.append({"depth": cfg.max_outstanding})
        failovers = [0] * n
        hedges = [0] * n
        hedges_wasted = [0] * n
        partition = [False] * n
        node_fault = [False] * n
        touched: List[Set[int]] = [set() for _ in range(n)] if logged else []

        def event(req: int, kind: str, t: float, attrs: Dict[str, object]) -> None:
            ev_req.append(req)
            ev_kind.append(kind)
            ev_t.append(t)
            ev_attrs.append(attrs)

        def settle(sid: int, t: float, outcome: str) -> None:
            gather = gathers[sid]
            gather.end_ms = t
            gather.attrs["outcome"] = outcome
            req = sid // width
            remaining[req] -= 1
            if remaining[req]:
                return
            missing = req_missing[req]
            code = outcomes[req]
            root = roots[req]
            root.end_ms = t
            # outcome_ms is the SLO-visible finish; merging may stretch the
            # span later to cover a hedge still in flight.
            root.attrs = {
                "outcome": CLUSTER_OUTCOME_NAMES[code],
                "outcome_ms": float(t),
                "missing_shards": missing,
            }
            if logged:
                event(req, _LOG_KIND[code], t, {"missing_shards": missing})

        for row in rows:
            tag = row[0]
            if tag == _ROW_ROUTE:
                _, sid, reason, t, chosen, eligible, load, q_ms = row
                req, k = divmod(sid, width)
                if reason == "primary":  # a slot's first row, at arrival
                    rid = roots[req].span_id
                    shard = slot_shard[sid]
                    gathers[sid] = gather = FleetSpan(
                        ids.slot_id(rid, k), rid, f"gather[{shard}]",
                        "gather", None, t, t, {"shard": shard},
                    )
                    router_spans.append(gather)
                gid = gathers[sid].span_id
                seq = routes_of[sid]
                routes_of[sid] = seq + 1
                router_spans.append(FleetSpan(
                    ids.route_id(gid, seq), gid, f"route:{reason}", "route",
                    chosen, t, t,
                    {
                        "policy": policy, "eligible": eligible,
                        "reason": reason, "chosen": chosen,
                        "load_ms": float(load) if load is not None else None,
                    },
                ))
                if chosen is None:
                    if reason == "primary":
                        node_fault[req] = True
                    if reason != "hedge":  # the shard is unreachable
                        settle(sid, t, "missing")
                elif reason == "failover":
                    failovers[req] += 1
                    if logged:
                        event(req, "failover", t,
                              {"node": chosen, "shard": slot_shard[sid]})
                elif reason == "hedge":
                    hedges[req] += 1
                    if logged:
                        event(req, "hedge", t, {
                            "node": chosen, "shard": slot_shard[sid],
                            "q_ms": q_ms,
                        })
            elif tag == _ROW_CALL:
                aid, sid, node, t, is_hedge = row[1]
                gid = gathers[sid].span_id
                seq = attempts_of[sid]
                attempts_of[sid] = seq + 1
                attempts[aid] = span = FleetSpan(
                    ids.attempt_id(gid, seq), gid, f"attempt@n{node}",
                    "attempt", node, t, t, {"hedge": is_hedge},
                )
                node_spans.setdefault(node, []).append(span)
                if logged:
                    req = sid // width
                    event(req, "shard_call", t, {
                        "node": node, "shard": slot_shard[sid],
                        "hedge": is_hedge,
                    })
                    touched[req].add(node)
            elif tag == _ROW_OK:
                (aid, sid, node, submitted, is_hedge), t = row[1], row[2]
                # The attempt's internal decomposition: on-node queue
                # wait, service time, and the fault-plan slowdown in
                # effect — the critical-path extractor's raw material.
                start, completion, slow = att_timing[aid]
                latency = t - submitted
                queue_ms = start - (submitted + hop)
                service_ms = completion - start
                if logged:
                    event(sid // width, "call_ok", t, {
                        "node": node, "shard": slot_shard[sid],
                        "latency_ms": latency, "hedge": is_hedge,
                        "queue_ms": queue_ms, "service_ms": service_ms,
                        "slow": slow,
                    })
                winner = "outcome" not in gathers[sid].attrs
                span = attempts[aid]
                span.end_ms = t
                span.attrs.update(
                    outcome="ok", latency_ms=latency, winner=winner,
                    queue_ms=queue_ms, service_ms=service_ms, slow=slow,
                )
                if winner:
                    settle(sid, t, "ok")
                elif is_hedge:
                    hedges_wasted[sid // width] += 1
            else:  # _ROW_FAIL
                (aid, sid, node, _, is_hedge), t, cause = row[1], row[2], row[3]
                req = sid // width
                if logged:
                    event(req, "call_failed", t, {
                        "node": node, "shard": slot_shard[sid],
                        "cause": cause, "hedge": is_hedge,
                    })
                span = attempts[aid]
                span.end_ms = t
                span.attrs.update(outcome="failed", cause=cause)
                if cause == "partition":
                    partition[req] = True
                elif cause == "node_fault":
                    node_fault[req] = True

        if logged:
            run.extend_events(ev_req, ev_kind, ev_t, ev_attrs)
            windows = plan.windows()
            run.finish_cluster(
                arrivals=arrivals,
                ends=end_ms,
                outcomes=outcomes,
                outcome_names=CLUSTER_OUTCOME_NAMES,
                # What lost a degraded or failed request its shards, or
                # what a completed one rode out; a shed one has none.
                causes=[
                    None if code == CL_SHED
                    else "partition" if partition[i]
                    else "node_fault" if node_fault[i] or code != CL_COMPLETED
                    else None
                    for i, code in enumerate(outcomes)
                ],
                # Tuples, kept as long as the log: most are the one
                # shared empty tuple, not a list per request.
                fault_windows=[
                    tuple([
                        name
                        for name, w_start, w_end, attrs in windows
                        if attrs.get("node") in touched[i]
                        and w_start <= end_ms[i]
                        and arrivals[i] <= w_end
                    ])
                    for i in range(n)
                ],
                shards=np.reshape(slot_shard, (n, width)),
                nodes=touched,
                failovers=failovers,
                hedges=hedges,
                hedges_wasted=hedges_wasted,
                tracer=obs.tracer,
            )
        emit_spans(obs.tracer, label, merge_spans(router_spans, node_spans))
        return run

    def _publish(self, result: ClusterResult, plan, obs, run=None) -> None:
        """Cluster metrics + fault-window trace track (observed runs)."""
        if obs is None:
            return
        obs.metrics.counter("cluster.requests").inc(result.offered_requests)
        obs.metrics.counter("cluster.failovers").inc(result.failovers)
        obs.metrics.counter("cluster.hedges").inc(result.hedges_issued)
        obs.metrics.counter("cluster.hedges_won").inc(result.hedges_won)
        obs.metrics.counter("cluster.hedges_wasted").inc(result.hedges_wasted)
        obs.metrics.counter("cluster.ejections").inc(result.ejections)
        obs.metrics.counter("cluster.probes").inc(result.probes)
        obs.metrics.counter("cluster.calls_failed").inc(result.calls_failed)
        obs.metrics.gauge("cluster.nodes").set(result.num_nodes)
        lat_hist = obs.metrics.histogram("cluster.latency_ms")
        if run is not None:
            # Same three-way join as the single box: histogram bucket ->
            # exemplar id -> request-log line and trace span.
            reqs = run.completed_reqs()
            lat_hist.observe_exemplars(
                result.latencies_ms, lambda k: run.exemplar_id(int(reqs[k])),
                reqs.size,
            )
        else:
            lat_hist.observe_many(result.latencies_ms)
        for stats in result.node_stats:
            obs.metrics.gauge(f"cluster.node{stats.node}.utilization").set(
                stats.utilization
            )
        if plan is not None and not plan.is_empty:
            tid = obs.tracer.new_sim_track("cluster.faults (ms)")
            for name, start, end, attrs in plan.windows():
                obs.tracer.add_sim_span(
                    name, "cluster.fault", start, end - start, tid=tid,
                    args=attrs,
                )
