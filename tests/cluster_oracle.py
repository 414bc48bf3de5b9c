"""Differential oracle for the multi-node cluster loop.

A frozen copy of the object-per-call cluster event loop that
``ClusterSim._run_cluster`` replaced: one ``_Slot`` and one ``_Attempt``
object per shard call, node worlds driven through ``_NodeWorld.submit``,
every arrival pushed onto the event heap, the call multiplier recomputed
per call, a latency window that sorts on every quantile, and a router
that scores each candidate through a ``load_of`` callback.  Observed,
it records as the package once did: every call both as request-log
events (``run.event``) and through the incremental span recorder
:class:`FleetTrace` (``begin_*``/``end_*``/``route``), fed router
decisions by an ``on_decision`` callback.  It shares no loop or
recorder code with the package, so byte equality between the two
(outcomes, latencies, counters, node stats, request log and fleet
trace) is a real check.  Only ``tests/`` imports it.

``run_cluster(sim, arrivals_ms)`` takes a :class:`ClusterSim` for its
configuration, shard placement and metric publishing, and returns the
:class:`ClusterResult` the object-per-call loop produces.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.obs import hooks as obs_hooks
from repro.obs import ids
from repro.obs.fleet import FleetSpan, merge_spans
from repro.serving.cluster import (
    CL_COMPLETED,
    CL_DEGRADED,
    CL_FAILED,
    CL_SHED,
    CLUSTER_OUTCOME_NAMES,
    ClusterConfig,
    ClusterResult,
    ClusterSim,
    NodeStats,
    ShardMap,
)
from repro.serving.faults import ClusterFaultPlan
from repro.serving.router import HealthTracker
from repro.serving.server import lognormal_services
from repro.serving.stats import safe_ratio

__all__ = ["FleetTrace", "LatencyWindow", "run_cluster"]

_STREAM_NODE_SERVICE = 102

_EV_CRASH = 0
_EV_DELIVER = 1
_EV_ARRIVE = 2
_EV_HEDGE = 3
_EV_TIMEOUT = 4
_EV_PROBE = 5

_DRAW_CHUNK = 1024


def _call_multiplier(shard_map: ShardMap, shard: int, node: int) -> float:
    rel = float(shard_map.hotness[shard] / shard_map.hotness.max())
    return 1.0 + shard_map.config.miss_penalty * rel * (
        1.0 - float(shard_map.cache_scores[node])
    )


class LatencyWindow:
    """Rolling window that sorts a copy on every quantile."""

    def __init__(self, size: int) -> None:
        self._size = size
        self._buf: List[float] = []
        self._next = 0

    def observe(self, latency_ms: float) -> None:
        if len(self._buf) < self._size:
            self._buf.append(latency_ms)
        else:  # ring overwrite, oldest first
            self._buf[self._next] = latency_ms
            self._next = (self._next + 1) % self._size

    def quantile(self, q: float) -> Optional[float]:
        if not self._buf:
            return None
        data = sorted(self._buf)
        rank = (len(data) - 1) * (q / 100.0)
        lo = int(rank)
        hi = min(lo + 1, len(data) - 1)
        frac = rank - lo
        return data[lo] + (data[hi] - data[lo]) * frac


class FleetTrace:
    """Collects the span trees of one cluster run.

    The cluster loop drives it through ``begin_*`` / ``end_*`` calls; ids
    are derived from the request-log run index so the root span id equals
    the exemplar id on the JSONL line.  Call :meth:`finalize` once after
    the event loop drains, then :meth:`emit` to publish onto the tracer.
    """

    def __init__(self, label: str, run_index: int = 0) -> None:
        self.label = label
        self.run_index = run_index
        #: Router-side spans (roots, gathers, routes), insertion-ordered.
        self.router_spans: List[FleetSpan] = []
        #: Attempt spans per serving node — the per-node run logs.
        self.node_spans: Dict[int, List[FleetSpan]] = {}
        self._by_id: Dict[str, FleetSpan] = {}
        self._route_seq: Dict[str, int] = {}
        self._attempt_seq: Dict[str, int] = {}
        self._finalized: Optional[List[FleetSpan]] = None

    # -- id scheme -----------------------------------------------------------

    def root_id(self, req: int) -> str:
        return ids.request_id(self.run_index, req)

    def slot_id(self, req: int, k: int) -> str:
        return ids.slot_id(self.root_id(req), k)

    # -- recording -----------------------------------------------------------

    def _add(
        self,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        kind: str,
        node: Optional[int],
        start_ms: float,
        end_ms: float,
        **attrs: object,
    ) -> FleetSpan:
        span = FleetSpan(
            span_id=span_id,
            parent_id=parent_id,
            name=name,
            kind=kind,
            node=node,
            start_ms=float(start_ms),
            end_ms=float(end_ms),
            attrs=dict(attrs),
        )
        self._by_id[span_id] = span
        if kind == "attempt" and node is not None:
            self.node_spans.setdefault(node, []).append(span)
        else:
            self.router_spans.append(span)
        return span

    def begin_request(self, req: int, t_ms: float) -> str:
        rid = self.root_id(req)
        self._add(rid, None, f"req[{req}]", "request", None, t_ms, t_ms)
        return rid

    def end_request(self, req: int, t_ms: float, outcome: str, **attrs) -> None:
        span = self._by_id.get(self.root_id(req))
        if span is None:
            return
        span.end_ms = max(span.end_ms, float(t_ms))
        span.attrs["outcome"] = outcome
        # The SLO-visible finish; the envelope may stretch later to cover
        # a hedge that was still in flight.
        span.attrs["outcome_ms"] = float(t_ms)
        span.attrs.update(attrs)

    def begin_slot(self, req: int, k: int, shard: int, t_ms: float) -> str:
        sid = self.slot_id(req, k)
        self._add(
            sid,
            self.root_id(req),
            f"gather[{shard}]",
            "gather",
            None,
            t_ms,
            t_ms,
            shard=shard,
        )
        return sid

    def end_slot(self, slot_id: str, t_ms: float, outcome: str) -> None:
        span = self._by_id.get(slot_id)
        if span is None:
            return
        span.end_ms = max(span.end_ms, float(t_ms))
        span.attrs["outcome"] = outcome

    def route(
        self,
        slot_id: str,
        t_ms: float,
        chosen: Optional[int],
        policy: str,
        eligible: int,
        reason: str,
        load_ms: Optional[float] = None,
    ) -> None:
        """Record one router decision under a gather span.

        ``reason`` says why the router was consulted (``primary``,
        ``failover``, ``hedge``); ``chosen`` is None when no routable
        replica remained; ``load_ms`` is the chosen node's backlog
        estimate at decision time (least_loaded only).
        """
        seq = self._route_seq.get(slot_id, 0)
        self._route_seq[slot_id] = seq + 1
        self._add(
            ids.route_id(slot_id, seq),
            slot_id,
            f"route:{reason}",
            "route",
            chosen,
            t_ms,
            t_ms,
            policy=policy,
            eligible=eligible,
            reason=reason,
            chosen=chosen,
            load_ms=load_ms,
        )

    def begin_attempt(
        self, slot_id: str, node: int, t_ms: float, hedge: bool
    ) -> str:
        seq = self._attempt_seq.get(slot_id, 0)
        self._attempt_seq[slot_id] = seq + 1
        aid = ids.attempt_id(slot_id, seq)
        self._add(
            aid,
            slot_id,
            f"attempt@n{node}",
            "attempt",
            node,
            t_ms,
            t_ms,
            hedge=hedge,
        )
        return aid

    def end_attempt(
        self, attempt_id: str, t_ms: float, outcome: str, **attrs: object
    ) -> None:
        span = self._by_id.get(attempt_id)
        if span is None:
            return
        span.end_ms = max(span.end_ms, float(t_ms))
        span.attrs["outcome"] = outcome
        span.attrs.update(attrs)

    # -- merge + export ------------------------------------------------------

    def finalize(self) -> List[FleetSpan]:
        """Merge the per-node span logs with the router spans.

        Parents are widened to envelope their children (deepest first,
        so a late attempt stretches its gather which stretches its
        request), then everything merges into one deterministic order.
        The merged list is cached; recording after finalize is a bug.
        """
        if self._finalized is None:
            spans = merge_spans(self.router_spans, self.node_spans)
            self._finalized = spans
        return self._finalized

    def spans(self) -> List[FleetSpan]:
        return self.finalize()

    def emit(self, tracer) -> None:
        """Publish the merged tree onto the tracer's simulated tracks.

        Router-side spans (request/gather/route) go on one ``fleet:...
        router`` track; each node's attempts go on its own ``fleet:...
        node{n}`` track — the Chrome-trace rendering of "per-node run
        logs merged with node attribution".
        """
        spans = self.finalize()
        if not spans:
            return
        router_tid = tracer.new_sim_track(f"fleet:{self.label} router (ms)")
        node_tids: Dict[int, int] = {}
        for node in sorted(self.node_spans):
            node_tids[node] = tracer.new_sim_track(
                f"fleet:{self.label} node{node} (ms)"
            )
        for span in spans:
            if span.kind == "attempt" and span.node is not None:
                tid = node_tids[span.node]
            else:
                tid = router_tid
            args: Dict[str, object] = {
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "kind": span.kind,
                "node": span.node,
            }
            args.update(span.attrs)
            tracer.add_sim_span(
                span.name,
                f"fleet.{span.kind}",
                span.start_ms,
                span.duration_ms,
                tid=tid,
                args=args,
            )


class _Router:
    """Replica selection through a per-candidate ``load_of`` callback."""

    def __init__(
        self,
        policy: str,
        health: HealthTracker,
        load_of: Optional[Callable[[int, float], float]] = None,
        on_decision: Optional[Callable] = None,
    ) -> None:
        self.policy = policy
        self.health = health
        self._load_of = load_of
        self.on_decision = on_decision
        self._rr: Dict[int, int] = {}

    def choose(
        self,
        shard: int,
        replicas: Sequence[int],
        tried: Set[int],
        now_ms: float,
        ctx: Optional[object] = None,
    ) -> Optional[int]:
        eligible = [
            n for n in replicas
            if n not in tried and not self.health.is_ejected(n)
        ]
        chosen: Optional[int] = None
        if eligible:
            if self.policy == "round_robin":
                start = self._rr.get(shard, 0) % len(replicas)
                for k in range(len(replicas)):
                    node = replicas[(start + k) % len(replicas)]
                    if node in eligible:
                        self._rr[shard] = (start + k + 1) % len(replicas)
                        chosen = node
                        break
            else:
                assert self._load_of is not None
                chosen = min(
                    eligible, key=lambda n: (self._load_of(n, now_ms), n)
                )
        if self.on_decision is not None:
            load = (
                self._load_of(chosen, now_ms)
                if chosen is not None and self._load_of is not None
                else None
            )
            self.on_decision(ctx, shard, chosen, len(eligible), now_ms, load)
        return chosen


class _NodeWorld:
    """One node's incremental FIFO M/G/c world inside the cluster loop."""

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

    def submit(
        self, t_work: float, multiplier: float, plan: Optional[ClusterFaultPlan]
    ) -> Tuple[int, float, float, float]:
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
        self.cores = [
            (until_ms, c) for c in range(self.config.cores_per_node)
        ]
        heapq.heapify(self.cores)
        self._pending = []
        if self.config.controller_factory is not None:
            self.controller = self.config.controller_factory(self.node)

    @property
    def final_level(self) -> int:
        return self.controller.level if self.controller is not None else 0


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


def run_cluster(sim: ClusterSim, arrivals_ms: np.ndarray) -> ClusterResult:
    """The object-per-call multi-node loop, on ``sim``'s configuration."""
    cfg = sim.config
    plan = cfg.faults if cfg.faults is not None else ClusterFaultPlan()
    n = int(arrivals_ms.size)
    shards_of = sim.shard_map.gather_shards(n)
    replicas = sim.shard_map.replicas
    nodes = [_NodeWorld(i, cfg) for i in range(cfg.num_nodes)]
    health = HealthTracker(cfg.num_nodes, cfg.health)
    inflight = [0] * cfg.num_nodes
    router = _Router(
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
            deadline_ms=cfg.deadline_ms,
        )
        if log is not None
        else None
    )
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

    slots: Dict[int, _Slot] = {}
    attempts: Dict[int, _Attempt] = {}
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

    def submit_attempt(slot: _Slot, node: int, now: float, hedge: bool) -> None:
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
            att.fail_cause = "node_fault"
            push(now + cfg.hop_ms, _EV_DELIVER, aid)
            return
        if plan.partitioned(node, now):
            att.fail_cause = "partition"
            push(now + cfg.call_timeout_ms, _EV_TIMEOUT, aid)
            return
        core, start, completion, slow = nodes[node].submit(
            now + cfg.hop_ms, _call_multiplier(sim.shard_map, slot.shard, node),
            plan,
        )
        att.core = core
        att.start = start
        att.slow = slow
        att.completion = completion
        outstanding_on[node][aid] = completion
        deliver = completion + cfg.hop_ms
        if plan.partitioned(node, deliver):
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

    def fail_attempt(att: _Attempt, now: float, cause: str) -> None:
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
        slot.missing = True
        slot.resolved = True
        if trace is not None:
            trace.end_slot(slot.trace_id, now, "missing")
        maybe_free_slot(slot)
        req_missing[slot.request] += 1
        finish_slot(slot.request, now)

    def maybe_free_slot(slot: _Slot) -> None:
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
            # A first arrival is implicit in the log's arrival column.
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
    if run is not None:
        fault_windows = plan.windows()
        causes: List[Optional[str]] = []
        windows: List[List[str]] = []
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
            causes.append(cause)
            windows.append(overlapping)
        run.finish_cluster(
            arrivals=arrivals_ms,
            ends=end_ms,
            outcomes=outcomes,
            outcome_names=CLUSTER_OUTCOME_NAMES,
            causes=causes,
            fault_windows=windows,
            shards=shards_of,
            nodes=req_nodes,
            failovers=req_failovers,
            hedges=req_hedges,
            hedges_wasted=req_hedges_wasted,
            tracer=obs.tracer if obs is not None else None,
        )
    if trace is not None:
        trace.finalize()
        trace.emit(obs.tracer)
    sim._publish(result, plan, obs, run)
    return result
