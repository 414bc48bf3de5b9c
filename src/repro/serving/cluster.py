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
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple, TYPE_CHECKING

import numpy as np

from ..errors import ConfigError
from ..mem.hierarchy import get_default_engine
from ..obs import hooks as obs_hooks
from ..obs.fleet import FleetTrace
from ..obs.metrics import Histogram
from .faults import ClusterFaultPlan, FaultPlan
from .router import HealthPolicy, HealthTracker, HedgePolicy, LatencyWindow, Router
from .router import ROUTING_POLICIES
from .server import (
    DEFAULT_SERVICE_CV,
    OUTCOME_COMPLETED,
    OUTCOME_SHED,
    ServerResult,
    ServerSim,
    ServingPolicy,
    lognormal_services,
)
from .stats import safe_mean, safe_percentile, safe_ratio

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

#: Sub-stream tags (disjoint from the FaultPlan streams).
_STREAM_GATHER = 101
_STREAM_NODE_SERVICE = 102

#: Event kinds, ordered so that at equal timestamps a crash kills
#: in-flight calls before their responses deliver, deliveries beat the
#: hedge timer (no hedging a call that just landed), and probes run last.
_EV_CRASH = 0
_EV_DELIVER = 1
_EV_ARRIVE = 2
_EV_HEDGE = 3
_EV_TIMEOUT = 4
_EV_PROBE = 5

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

    ``local_fault_plan`` / ``local_policy`` / ``controller_factory``
    configure the per-node resilient loop; core-level fault plans are
    only accepted on the 1-node delegation path (a multi-node cluster's
    failure domain is the node).
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
    engine: Optional[str] = None
    label: Optional[str] = None
    local_fault_plan: Optional[FaultPlan] = None
    local_policy: Optional[ServingPolicy] = None
    controller_factory: Optional[Callable[[int], "DegradationController"]] = None

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ConfigError("need at least one node")
        if self.cores_per_node <= 0:
            raise ConfigError("need at least one core per node")
        if self.mean_service_ms <= 0:
            raise ConfigError("mean service time must be positive")
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
        if self.engine is not None and self.engine not in ("fast", "reference"):
            raise ConfigError(
                f"unknown serving engine {self.engine!r}; "
                "expected 'fast' or 'reference'"
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
        rel = float(self.hotness[shard] / self.hotness.max())
        return 1.0 + self.config.miss_penalty * rel * (
            1.0 - float(self.cache_scores[node])
        )

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
        keys = np.log(self.hotness)[None, :] + rng.gumbel(
            size=(num_requests, cfg.num_shards)
        )
        top = np.argpartition(-keys, cfg.gather_width - 1, axis=1)
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


class _NodeWorld:
    """One node's incremental FIFO M/G/c world inside the cluster loop.

    The same core model as ``ServerSim``'s plain path, driven one call
    at a time: submissions arrive in non-decreasing time order (the
    global event loop guarantees it), each call is assigned to the
    earliest-free core, and its completion is known at submission.  The
    per-node degradation controller is fed lazily: completions are
    drained up to each new call's start time before its scale is
    sampled, so control decisions only ever see the past.
    """

    def __init__(self, node: int, config: ClusterConfig) -> None:
        self.node = node
        self.config = config
        self.cores: List[Tuple[float, int]] = [
            (0.0, c) for c in range(config.cores_per_node)
        ]
        heapq.heapify(self.cores)
        self._rng = np.random.default_rng(
            np.random.SeedSequence([config.seed, _STREAM_NODE_SERVICE, node])
        )
        self._pool = np.empty(0)
        self._pool_i = 0
        self.controller = (
            config.controller_factory(node)
            if config.controller_factory is not None
            else None
        )
        self._pending: List[Tuple[float, float]] = []  # (completion, latency)
        self.calls = 0
        self.lost_calls = 0
        self.busy_ms = 0.0

    def _draw(self) -> float:
        if self._pool_i >= self._pool.size:
            self._pool = lognormal_services(
                self.config.mean_service_ms,
                _DRAW_CHUNK,
                self._rng,
                cv=self.config.service_cv,
            )
            self._pool_i = 0
        value = float(self._pool[self._pool_i])
        self._pool_i += 1
        return value

    def backlog(self, now_ms: float) -> float:
        """Earliest-core-free estimate for least-loaded routing."""
        return max(0.0, self.cores[0][0] - now_ms)

    def submit(
        self, t_work: float, multiplier: float, plan: Optional[ClusterFaultPlan]
    ) -> Tuple[int, float, float, float]:
        """Run one shard call; returns ``(core, start, completion, slow)``.

        ``slow`` is the fault-plan slowdown factor in effect at the call's
        start — the observability layer uses it to carve the contention
        penalty out of the service segment.
        """
        if self.controller is not None:
            while self._pending and self._pending[0][0] <= t_work:
                done, latency = heapq.heappop(self._pending)
                self.controller.observe(done, latency)
        scale = self.controller.scale() if self.controller is not None else 1.0
        free_at, core = heapq.heappop(self.cores)
        start = max(t_work, free_at)
        slow = plan.slow_factor(self.node, start) if plan is not None else 1.0
        service = self._draw() * multiplier * slow * scale
        completion = start + service
        heapq.heappush(self.cores, (completion, core))
        self.calls += 1
        self.busy_ms += service
        if self.controller is not None:
            heapq.heappush(self._pending, (completion, completion - t_work))
        return core, start, completion, slow

    def crash(self, until_ms: float) -> None:
        """Hard kill: drop queued work, restart cold at ``until_ms``."""
        self.cores = [
            (until_ms, c) for c in range(self.config.cores_per_node)
        ]
        heapq.heapify(self.cores)
        self._pending = []
        if self.config.controller_factory is not None:
            # The restarted process starts at the base level; the old
            # controller's history dies with the node.
            self.controller = self.config.controller_factory(self.node)

    @property
    def final_level(self) -> int:
        return self.controller.level if self.controller is not None else 0


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

    @property
    def served_fraction(self) -> float:
        """Fraction of offered requests served (full or partial)."""
        served = self.outcome_count("completed") + self.outcome_count("degraded")
        return safe_ratio(served, self.offered_requests)

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
        if not config.is_single_box:
            if config.local_fault_plan is not None and not config.local_fault_plan.is_empty:
                raise ConfigError(
                    "core-level fault plans only apply to a 1-node cluster; "
                    "use ClusterFaultPlan for node-scoped faults"
                )
            if config.local_policy is not None and not config.local_policy.is_null:
                raise ConfigError(
                    "per-box serving policies only apply to a 1-node "
                    "cluster; the router owns cluster admission control"
                )
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
            fault_plan=cfg.local_fault_plan,
            policy=cfg.local_policy,
            controller=(
                cfg.controller_factory(0)
                if cfg.controller_factory is not None
                else None
            ),
            label=cfg.label,
            engine=cfg.engine,
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
        if arrivals_ms.ndim != 1 or arrivals_ms.size == 0:
            raise ConfigError("need a non-empty 1-D arrival array")
        if np.any(np.diff(arrivals_ms) < 0):
            raise ConfigError("arrival times must be non-decreasing")
        cfg = self.config
        if cfg.is_single_box:
            if rng is None:
                rng = np.random.default_rng(
                    np.random.SeedSequence([cfg.seed, _STREAM_NODE_SERVICE, 0])
                )
            return self._run_local(arrivals_ms, rng)
        engine = cfg.engine if cfg.engine is not None else get_default_engine()
        if engine not in ("fast", "reference"):
            raise ConfigError(
                f"unknown serving engine {engine!r}; "
                "expected 'fast' or 'reference'"
            )
        return self._run_cluster(arrivals_ms)

    def _run_cluster(self, arrivals_ms: np.ndarray) -> ClusterResult:
        cfg = self.config
        plan = cfg.faults if cfg.faults is not None else ClusterFaultPlan()
        n = int(arrivals_ms.size)
        shards_of = self.shard_map.gather_shards(n)
        replicas = self.shard_map.replicas
        nodes = [_NodeWorld(i, cfg) for i in range(cfg.num_nodes)]
        health = HealthTracker(cfg.num_nodes, cfg.health)
        # Least-loaded routing sees only what a real front end sees: the
        # number of calls it has sent each node and not yet heard back
        # about (least-outstanding-requests), never node internals.
        inflight = [0] * cfg.num_nodes
        router = Router(
            cfg.routing,
            health,
            load_of=lambda node, now: float(inflight[node]),
        )
        window = (
            LatencyWindow(cfg.hedge.window) if cfg.hedge is not None else None
        )

        obs = obs_hooks.active()
        log = obs.requests if obs is not None else None
        run = (
            log.start_run(
                label=cfg.label if cfg.label else "cluster",
                num_cores=cfg.num_nodes * cfg.cores_per_node,
                num_requests=n,
                deadline_ms=cfg.deadline_ms,
            )
            if log is not None
            else None
        )
        # Distributed tracing: one span tree per request, root id equal
        # to the request-log exemplar id.  Held as None with hooks off so
        # the loop's only overhead is the same is-None branches the run
        # log already takes.
        trace = (
            FleetTrace(
                cfg.label if cfg.label else "cluster",
                run_index=run.index if run is not None else 0,
            )
            if obs is not None
            else None
        )
        if trace is not None:
            router.on_decision = (
                lambda ctx, shard, chosen, eligible, t, load: trace.route(
                    ctx[0], t, chosen, cfg.routing, eligible, ctx[1],
                    load_ms=load,
                )
            )

        # -- mutable run state -------------------------------------------
        outcomes = np.full(n, -1, dtype=np.int64)
        end_ms = np.zeros(n)
        req_remaining = np.zeros(n, dtype=np.int64)
        req_missing = np.zeros(n, dtype=np.int64)
        req_failovers = np.zeros(n, dtype=np.int64)
        req_hedges = np.zeros(n, dtype=np.int64)
        req_hedges_wasted = np.zeros(n, dtype=np.int64)
        req_partition = np.zeros(n, dtype=bool)
        req_node_fault = np.zeros(n, dtype=bool)
        req_nodes: List[Set[int]] = [set() for _ in range(n)] if run else []

        slots: Dict[int, "_Slot"] = {}
        attempts: Dict[int, "_Attempt"] = {}
        outstanding_on: List[Dict[int, float]] = [
            {} for _ in range(cfg.num_nodes)
        ]
        counters = {
            "failovers": 0,
            "hedges_issued": 0,
            "hedges_won": 0,
            "hedges_wasted": 0,
            "hedges_failed": 0,
            "calls_failed": 0,
            "partition_failures": 0,
        }
        outstanding_requests = 0

        events: List[tuple] = []
        seq = 0
        next_slot_id = 0
        next_attempt_id = 0

        def push(t: float, kind: int, payload: object) -> None:
            nonlocal seq
            heapq.heappush(events, (t, kind, seq, payload))
            seq += 1

        for node, windows in (
            (i, plan.crashes_for(i)) for i in range(cfg.num_nodes)
        ):
            for start, end in windows:
                push(start, _EV_CRASH, (node, end))
        for i in range(n):
            push(float(arrivals_ms[i]), _EV_ARRIVE, i)

        def hedge_delay() -> Optional[float]:
            if cfg.hedge is None or window is None:
                return None
            q = window.quantile(cfg.hedge.quantile)
            if q is None:  # no observations yet: nothing to hedge against
                return None
            return max(cfg.hedge.min_ms, q)

        def submit_attempt(slot: "_Slot", node: int, now: float, hedge: bool) -> None:
            nonlocal next_attempt_id
            aid = next_attempt_id
            next_attempt_id += 1
            att = _Attempt(aid, slot, node, now, hedge)
            attempts[aid] = att
            slot.tried.add(node)
            slot.outstanding += 1
            inflight[node] += 1
            if trace is not None:
                att.trace_id = trace.begin_attempt(
                    slot.trace_id, node, now, hedge
                )
            if run is not None:
                run.event(
                    slot.request,
                    "shard_call",
                    now,
                    node=node,
                    shard=slot.shard,
                    hedge=hedge,
                )
                req_nodes[slot.request].add(node)
            if plan.node_down(node, now):
                # Connection refused: the router learns at one hop.
                att.fail_cause = "node_fault"
                push(now + cfg.hop_ms, _EV_DELIVER, aid)
                return
            if plan.partitioned(node, now):
                # Swallowed by the partition: only the timeout resolves it.
                att.fail_cause = "partition"
                push(now + cfg.call_timeout_ms, _EV_TIMEOUT, aid)
                return
            core, start, completion, slow = nodes[node].submit(
                now + cfg.hop_ms, self.shard_map.call_multiplier(slot.shard, node),
                plan,
            )
            att.core = core
            att.start = start
            att.slow = slow
            att.completion = completion
            outstanding_on[node][aid] = completion
            deliver = completion + cfg.hop_ms
            if plan.partitioned(node, deliver):
                # The response would land inside a partition window: lost.
                att.fail_cause = "partition"
                push(now + cfg.call_timeout_ms, _EV_TIMEOUT, aid)
                return
            att.deliver = deliver
            push(deliver, _EV_DELIVER, aid)
            if deliver > now + cfg.call_timeout_ms:
                att.fail_cause = "timeout"
                push(now + cfg.call_timeout_ms, _EV_TIMEOUT, aid)
            if not hedge and cfg.hedge is not None:
                delay = hedge_delay()
                if delay is not None:
                    push(now + delay, _EV_HEDGE, slot.slot_id)

        def fail_attempt(att: "_Attempt", now: float, cause: str) -> None:
            """One attempt is dead; maybe fail over, maybe orphan the slot."""
            if att.resolved:
                return
            att.resolved = True
            attempts.pop(att.aid, None)
            outstanding_on[att.node].pop(att.aid, None)
            inflight[att.node] -= 1
            counters["calls_failed"] += 1
            if cause == "partition":
                counters["partition_failures"] += 1
            slot = att.slot
            slot.outstanding -= 1
            slot.fail_causes.add(cause)
            if trace is not None:
                trace.end_attempt(att.trace_id, now, "failed", cause=cause)
            if run is not None:
                run.event(
                    slot.request,
                    "call_failed",
                    now,
                    node=att.node,
                    shard=slot.shard,
                    cause=cause,
                    hedge=att.is_hedge,
                )
            if cause == "partition":
                req_partition[slot.request] = True
            elif cause == "node_fault":
                req_node_fault[slot.request] = True
            if health.record_failure(att.node):
                push(now + cfg.health.probe_interval_ms, _EV_PROBE, att.node)
            if slot.resolved:
                if att.is_hedge:
                    counters["hedges_failed"] += 1
                maybe_free_slot(slot)
                return
            if slot.outstanding > 0:
                # A sibling attempt (primary or hedge) is still racing.
                if att.is_hedge:
                    counters["hedges_failed"] += 1
                return
            target = router.choose(
                slot.shard, replicas[slot.shard], slot.tried, now,
                ctx=(slot.trace_id, "failover"),
            )
            if target is not None:
                counters["failovers"] += 1
                req_failovers[slot.request] += 1
                if run is not None:
                    run.event(
                        slot.request,
                        "failover",
                        now,
                        node=target,
                        shard=slot.shard,
                    )
                if att.is_hedge:
                    counters["hedges_failed"] += 1
                submit_attempt(slot, target, now, hedge=False)
                return
            if att.is_hedge:
                counters["hedges_failed"] += 1
            # No replica left: the shard is unreachable for this request.
            slot.missing = True
            slot.resolved = True
            if trace is not None:
                trace.end_slot(slot.trace_id, now, "missing")
            maybe_free_slot(slot)
            req_missing[slot.request] += 1
            finish_slot(slot.request, now)

        def maybe_free_slot(slot: "_Slot") -> None:
            # Bound memory on multi-million-request runs: a slot with no
            # attempts in flight and a settled outcome can never be
            # touched again (a stale hedge timer finds it absent).
            if slot.resolved and slot.outstanding == 0:
                slots.pop(slot.slot_id, None)

        def finish_slot(req: int, now: float) -> None:
            req_remaining[req] -= 1
            if req_remaining[req] > 0:
                return
            finalize_request(req, now)

        def finalize_request(req: int, now: float) -> None:
            nonlocal outstanding_requests
            missing = int(req_missing[req])
            width = int(shards_of.shape[1])
            if missing == 0:
                outcomes[req] = CL_COMPLETED
                kind = "complete"
            elif missing < width and cfg.partial_results:
                outcomes[req] = CL_DEGRADED
                kind = "degraded"
            else:
                outcomes[req] = CL_FAILED
                kind = "failed"
            end_ms[req] = now
            outstanding_requests -= 1
            if run is not None:
                run.event(req, kind, now, missing_shards=missing)
            if trace is not None:
                trace.end_request(
                    req,
                    now,
                    CLUSTER_OUTCOME_NAMES[int(outcomes[req])],
                    missing_shards=missing,
                )

        # -- main loop -----------------------------------------------------
        while events:
            now, kind, _, payload = heapq.heappop(events)
            if kind == _EV_CRASH:
                node, until = payload
                killed = list(outstanding_on[node].items())
                nodes[node].lost_calls += sum(
                    1 for _, completion in killed if completion > now
                )
                for aid, completion in killed:
                    att = attempts.get(aid)
                    outstanding_on[node].pop(aid, None)
                    if att is None or completion <= now:
                        continue  # response already left the node
                    fail_attempt(att, now, "node_fault")
                nodes[node].crash(until)
            elif kind == _EV_DELIVER:
                att = attempts.get(payload)
                if att is None or att.resolved:
                    continue
                slot = att.slot
                if att.fail_cause == "node_fault" and att.completion is None:
                    # Fail-fast bounce off a down node.
                    fail_attempt(att, now, "node_fault")
                    continue
                att.resolved = True
                attempts.pop(att.aid, None)
                outstanding_on[att.node].pop(att.aid, None)
                slot.outstanding -= 1
                inflight[att.node] -= 1
                health.record_success(att.node)
                if window is not None:
                    window.observe(now - att.submit_ms)
                if run is not None:
                    # The attempt's internal decomposition: on-node queue
                    # wait, service time, and the fault-plan slowdown in
                    # effect — the critical-path extractor's raw material.
                    run.event(
                        slot.request,
                        "call_ok",
                        now,
                        node=att.node,
                        shard=slot.shard,
                        latency_ms=now - att.submit_ms,
                        hedge=att.is_hedge,
                        queue_ms=att.start - (att.submit_ms + cfg.hop_ms),
                        service_ms=att.completion - att.start,
                        slow=att.slow,
                    )
                if slot.resolved:
                    if att.is_hedge:
                        counters["hedges_wasted"] += 1
                        req_hedges_wasted[slot.request] += 1
                    if trace is not None:
                        trace.end_attempt(
                            att.trace_id, now, "ok",
                            latency_ms=now - att.submit_ms, winner=False,
                            queue_ms=att.start - (att.submit_ms + cfg.hop_ms),
                            service_ms=att.completion - att.start,
                            slow=att.slow,
                        )
                    maybe_free_slot(slot)
                    continue
                slot.resolved = True
                if att.is_hedge:
                    counters["hedges_won"] += 1
                if trace is not None:
                    trace.end_attempt(
                        att.trace_id, now, "ok",
                        latency_ms=now - att.submit_ms, winner=True,
                        queue_ms=att.start - (att.submit_ms + cfg.hop_ms),
                        service_ms=att.completion - att.start,
                        slow=att.slow,
                    )
                    trace.end_slot(slot.trace_id, now, "ok")
                maybe_free_slot(slot)
                finish_slot(slot.request, now)
            elif kind == _EV_ARRIVE:
                i = payload
                if run is not None:
                    run.event(i, "arrive", now)
                if trace is not None:
                    trace.begin_request(i, now)
                if (
                    cfg.max_outstanding is not None
                    and outstanding_requests >= cfg.max_outstanding
                ):
                    outcomes[i] = CL_SHED
                    end_ms[i] = now
                    if run is not None:
                        run.event(i, "shed", now, depth=outstanding_requests)
                    if trace is not None:
                        trace.end_request(i, now, "shed")
                    continue
                outstanding_requests += 1
                width = int(shards_of.shape[1])
                req_remaining[i] = width
                for k in range(width):
                    shard = int(shards_of[i, k])
                    slot = _Slot(next_slot_id, i, shard)
                    next_slot_id += 1
                    slots[slot.slot_id] = slot
                    if trace is not None:
                        slot.trace_id = trace.begin_slot(i, k, shard, now)
                    target = router.choose(
                        shard, replicas[shard], slot.tried, now,
                        ctx=(slot.trace_id, "primary"),
                    )
                    if target is None:
                        slot.missing = True
                        slot.resolved = True
                        slot.fail_causes.add("node_fault")
                        if trace is not None:
                            trace.end_slot(slot.trace_id, now, "missing")
                        req_node_fault[i] = True
                        req_missing[i] += 1
                        finish_slot(i, now)
                        continue
                    submit_attempt(slot, target, now, hedge=False)
            elif kind == _EV_HEDGE:
                slot = slots.get(payload)
                if slot is None or slot.resolved:
                    continue
                if cfg.hedge is None or slot.hedges >= cfg.hedge.max_hedges:
                    continue
                target = router.choose(
                    slot.shard, replicas[slot.shard], slot.tried, now,
                    ctx=(slot.trace_id, "hedge"),
                )
                if target is None:
                    continue
                slot.hedges += 1
                counters["hedges_issued"] += 1
                req_hedges[slot.request] += 1
                if run is not None:
                    # q_ms: the latency-window quantile the hedge delay was
                    # racing (the fire-time estimate of the arming-time
                    # value) — lets the what-if engine re-time hedges under
                    # a different floor.
                    run.event(
                        slot.request, "hedge", now, node=target,
                        shard=slot.shard,
                        q_ms=window.quantile(cfg.hedge.quantile)
                        if window is not None else None,
                    )
                submit_attempt(slot, target, now, hedge=True)
                if slot.hedges < cfg.hedge.max_hedges:
                    delay = hedge_delay()
                    if delay is not None:
                        push(now + delay, _EV_HEDGE, slot.slot_id)
            elif kind == _EV_TIMEOUT:
                att = attempts.get(payload)
                if att is None or att.resolved:
                    continue
                fail_attempt(att, now, att.fail_cause or "timeout")
            else:  # _EV_PROBE
                node = payload
                if not health.is_ejected(node):
                    continue
                reachable = not plan.unreachable(node, now)
                if not health.record_probe(node, reachable):
                    push(now + cfg.health.probe_interval_ms, _EV_PROBE, node)

        # -- aggregate ------------------------------------------------------
        completed = outcomes == CL_COMPLETED
        degraded = outcomes == CL_DEGRADED
        latencies = (end_ms - arrivals_ms)[completed]
        degraded_lat = (end_ms - arrivals_ms)[degraded]
        request_latency = np.full(n, np.inf)
        request_latency[completed] = latencies
        request_latency[degraded] = degraded_lat
        duration = float(
            max(end_ms.max(), arrivals_ms[-1]) - arrivals_ms[0]
        )
        node_stats = [
            NodeStats(
                node=w.node,
                calls=w.calls,
                lost_calls=w.lost_calls,
                busy_ms=w.busy_ms,
                utilization=safe_ratio(
                    w.busy_ms, cfg.cores_per_node * duration
                ),
                final_degradation_level=w.final_level,
            )
            for w in nodes
        ]
        result = ClusterResult(
            outcomes=outcomes,
            latencies_ms=latencies,
            degraded_latencies_ms=degraded_lat,
            request_latency_ms=request_latency,
            num_nodes=cfg.num_nodes,
            duration_ms=duration,
            deadline_ms=cfg.deadline_ms,
            node_stats=node_stats,
            failovers=counters["failovers"],
            hedges_issued=counters["hedges_issued"],
            hedges_won=counters["hedges_won"],
            hedges_wasted=counters["hedges_wasted"],
            hedges_failed=counters["hedges_failed"],
            ejections=health.ejections,
            probes=health.probes,
            calls_failed=counters["calls_failed"],
            partition_failures=counters["partition_failures"],
        )
        hist = Histogram()
        hist.observe_many(latencies)
        result.latency_hist = hist
        if run is not None:
            fault_windows = plan.windows()
            for i in range(n):
                name = CLUSTER_OUTCOME_NAMES[int(outcomes[i])]
                cause = None
                if name in ("degraded", "failed"):
                    cause = "partition" if req_partition[i] else "node_fault"
                elif name == "completed":
                    if req_partition[i]:
                        cause = "partition"
                    elif req_node_fault[i]:
                        cause = "node_fault"
                touched = req_nodes[i]
                overlapping = [
                    wname
                    for wname, w_start, w_end, attrs in fault_windows
                    if attrs.get("node") in touched
                    and w_start <= end_ms[i]
                    and arrivals_ms[i] <= w_end
                ]
                run.add_record(
                    req=i,
                    arrival_ms=float(arrivals_ms[i]),
                    outcome=name,
                    end_ms=float(end_ms[i]),
                    cause=cause,
                    fault_windows=overlapping,
                    shards=[int(s) for s in shards_of[i]],
                    nodes=sorted(touched),
                    failovers=int(req_failovers[i]),
                    hedges=int(req_hedges[i]),
                    hedges_wasted=int(req_hedges_wasted[i]),
                )
            run.finish_custom(
                tracer=obs.tracer if obs is not None else None
            )
        if trace is not None:
            trace.finalize()
            trace.emit(obs.tracer)
        self._publish(result, plan, obs, run)
        return result

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


class _Slot:
    """One shard lookup of one request (primary + failovers + hedges)."""

    __slots__ = (
        "slot_id",
        "request",
        "shard",
        "resolved",
        "missing",
        "tried",
        "outstanding",
        "hedges",
        "fail_causes",
        "trace_id",
    )

    def __init__(self, slot_id: int, request: int, shard: int) -> None:
        self.slot_id = slot_id
        self.request = request
        self.shard = shard
        self.resolved = False
        self.missing = False
        self.tried: Set[int] = set()
        self.outstanding = 0
        self.hedges = 0
        self.fail_causes: Set[str] = set()
        self.trace_id: Optional[str] = None


class _Attempt:
    """One shard-call attempt in flight to one node."""

    __slots__ = (
        "aid",
        "slot",
        "node",
        "submit_ms",
        "is_hedge",
        "resolved",
        "core",
        "start",
        "slow",
        "completion",
        "deliver",
        "fail_cause",
        "trace_id",
    )

    def __init__(
        self, aid: int, slot: _Slot, node: int, submit_ms: float, is_hedge: bool
    ) -> None:
        self.aid = aid
        self.slot = slot
        self.node = node
        self.submit_ms = submit_ms
        self.is_hedge = is_hedge
        self.resolved = False
        self.core: Optional[int] = None
        self.start: Optional[float] = None
        self.slow: float = 1.0
        self.completion: Optional[float] = None
        self.deliver: Optional[float] = None
        self.fail_cause: Optional[str] = None
        self.trace_id: Optional[str] = None
