"""Request-scoped tracing: lifecycle records, causes, links, determinism."""

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.obs import (
    RequestLog,
    attribute_miss,
    load_request_log,
    miss_attribution,
)
from repro.obs.hooks import Observation, session
from repro.obs.critpath import (
    SEGMENT_KINDS,
    bottleneck,
    check_conservation,
    extract_critical_path,
    extract_paths,
)
from repro.obs.requests import MISS_CAUSES, TERMINAL_CAUSES
from repro.obs.schema import validate_def
from repro.serving.degradation import DegradationController, scheme_ladder
from repro.serving.cluster import ClusterConfig, ClusterSim
from repro.serving.faults import (
    ArrivalBurst,
    BandwidthDegradation,
    ClusterFaultPlan,
    FaultPlan,
    NodeCrash,
    NodePartition,
    NodeSlow,
    Stragglers,
)
from repro.serving.router import HedgePolicy
from repro.serving.server import ServingPolicy, simulate_server
from repro.serving.workload import poisson_arrivals

SCHEMA_PATH = Path(__file__).parent.parent / "tools" / "trace_schema.json"


def _arrivals(n=150, interarrival=1.5, seed=5):
    rng = np.random.default_rng(seed)
    return poisson_arrivals(interarrival, n, rng)


def _stressed_args():
    """A serving setup that sheds, times out, retries, and completes late."""
    arrivals = _arrivals()
    horizon = float(arrivals[-1])
    plan = FaultPlan(
        [
            BandwidthDegradation(0.2 * horizon, 0.7 * horizon, 3.0),
            ArrivalBurst(0.4 * horizon, 50, 0.2),
            Stragglers(0.1, 4.0, tail_alpha=1.5),
        ],
        seed=3,
    )
    policy = ServingPolicy(
        deadline_ms=8.0,
        timeout_ms=6.0,
        max_retries=1,
        retry_backoff_ms=2.0,
        max_queue_depth=6,
    )
    return arrivals, plan, policy


# -- recording ---------------------------------------------------------------


def test_fast_path_records_every_request():
    arrivals = _arrivals()
    baseline = simulate_server(arrivals, 4.0, 2, np.random.default_rng(1))
    with session(Observation(requests=RequestLog())) as obs:
        result = simulate_server(
            arrivals, 4.0, 2, np.random.default_rng(1), label="fast"
        )
    assert np.array_equal(baseline.latencies_ms, result.latencies_ms)
    records = obs.requests.records()
    assert len(records) == arrivals.size
    assert all(r["outcome"] == "completed" for r in records)
    assert all(r["cause"] is None for r in records)
    kinds = [e["kind"] for e in records[0]["events"]]
    assert kinds == ["arrive", "dispatch", "complete"]
    assert records[0]["label"] == "fast"
    # latency == wait + service holds per record.
    for r in records:
        assert r["latency_ms"] == pytest.approx(r["wait_ms"] + r["service_ms"])


def test_resilient_path_results_byte_identical_with_log_on():
    arrivals, plan, policy = _stressed_args()
    controller = DegradationController(
        scheme_ladder({"baseline": 1.0, "sw_pf": 0.8}), sla_ms=8.0
    )
    baseline = simulate_server(
        arrivals, 4.0, 2, np.random.default_rng(2),
        fault_plan=plan, policy=policy,
        controller=DegradationController(
            scheme_ladder({"baseline": 1.0, "sw_pf": 0.8}), sla_ms=8.0
        ),
    )
    with session(Observation(requests=RequestLog())) as obs:
        observed = simulate_server(
            arrivals, 4.0, 2, np.random.default_rng(2),
            fault_plan=plan, policy=policy, controller=controller,
            label="stressed",
        )
    assert baseline.latencies_ms.tobytes() == observed.latencies_ms.tobytes()
    assert baseline.outcomes.tobytes() == observed.outcomes.tobytes()
    assert baseline.retry_counts.tobytes() == observed.retry_counts.tobytes()
    assert obs.requests.num_requests == observed.offered_requests


def test_every_miss_has_cause_and_linked_span():
    """ISSUE acceptance: shed/timed-out => recorded cause + >=1 trace span."""
    arrivals, plan, policy = _stressed_args()
    with session(Observation(requests=RequestLog())) as obs:
        result = simulate_server(
            arrivals, 4.0, 2, np.random.default_rng(2),
            fault_plan=plan, policy=policy, label="stressed",
        )
    assert result.outcome_count("shed") > 0
    assert result.outcome_count("timed_out") > 0
    span_ids = {
        e.args.get("id")
        for e in obs.tracer.events
        if e.category == "serving.request"
    }
    for record in obs.requests.records():
        if record["outcome"] in ("shed", "timed_out"):
            assert record["cause"], record
            assert attribute_miss(record) in MISS_CAUSES
        assert record["id"] in span_ids


def test_dispatch_event_carries_scheme_and_level():
    arrivals, plan, policy = _stressed_args()
    controller = DegradationController(
        scheme_ladder({"baseline": 1.0, "sw_pf": 0.8}), sla_ms=8.0,
        window=16, min_samples=4, escalate_margin=0.5, recover_margin=0.2,
        cooldown=8,
    )
    with session(Observation(requests=RequestLog())) as obs:
        simulate_server(
            arrivals, 4.0, 2, np.random.default_rng(2),
            fault_plan=plan, policy=policy, controller=controller,
            label="ctl",
        )
    assert controller.events, "controller never changed level"
    dispatched = [
        r for r in obs.requests.records()
        if any(e["kind"] == "dispatch" for e in r["events"])
    ]
    schemes = {r["scheme"] for r in dispatched}
    assert "baseline" in schemes
    assert len(schemes) > 1  # some requests ran under a degraded scheme
    for r in dispatched:
        assert r["degradation_level"] is not None


def test_fault_windows_only_overlapping(monkeypatch):
    arrivals = _arrivals()
    horizon = float(arrivals[-1])
    window = (0.5 * horizon, 0.8 * horizon)
    plan = FaultPlan([BandwidthDegradation(*window, 4.0)], seed=1)
    with session(Observation(requests=RequestLog())) as obs:
        simulate_server(
            arrivals, 4.0, 2, np.random.default_rng(2),
            fault_plan=plan, policy=ServingPolicy(deadline_ms=8.0),
        )
    for r in obs.requests.records():
        overlaps = float(r["arrival_ms"]) <= window[1] and float(
            r["end_ms"]
        ) >= window[0]
        assert bool(r["fault_windows"]) == overlaps


# -- exemplar linkage --------------------------------------------------------


def test_latency_histogram_exemplars_reference_logged_requests():
    arrivals = _arrivals()
    with session(Observation(requests=RequestLog())) as obs:
        simulate_server(arrivals, 4.0, 2, np.random.default_rng(1))
    snap = obs.metrics.histogram("serving.latency_ms").snapshot()
    assert snap["count"] == arrivals.size
    exemplars = snap["exemplars"]
    assert exemplars, "no exemplar buckets recorded"
    logged_ids = {r["id"] for r in obs.requests.records()}
    for ids in exemplars.values():
        assert 1 <= len(ids) <= 4  # per-bucket cap
        assert set(ids) <= logged_ids


# -- bounds ------------------------------------------------------------------


def test_request_log_bound_counts_drops():
    arrivals = _arrivals(n=50)
    log = RequestLog(max_requests=30)
    with session(Observation(requests=log)):
        simulate_server(arrivals, 4.0, 2, np.random.default_rng(1))
    assert log.num_requests == 30
    assert log.dropped == 20
    assert log.meta()["dropped"] == 20
    assert len(log.records()) == 30


# -- attribution -------------------------------------------------------------


def _rec(**kwargs):
    base = {
        "req": 0,
        "id": "0:0",
        "outcome": "completed",
        "cause": None,
        "arrival_ms": 0.0,
        "end_ms": 3.0,
        "deadline_met": True,
        "fault_windows": [],
        "retries": 0,
        "wait_ms": 1.0,
        "service_ms": 2.0,
        "core": 0,
        "events": [],
    }
    base.update(kwargs)
    return base


def _late(*events, **kwargs):
    """A single-box request that completed past its deadline: ``events``
    (``(kind, t_ms, attrs)``) follow its arrival at 0 ms."""
    lines = [{"kind": "arrive", "t_ms": 0.0}]
    lines += [{"kind": kind, "t_ms": t, **attrs} for kind, t, attrs in events]
    return _rec(deadline_met=False, end_ms=lines[-1]["t_ms"], events=lines, **kwargs)


def _call(kind, t, node, **attrs):
    return (kind, t, {"node": node, "shard": 0, **attrs})


def _ok(t, node, latency, queue, service, slow=1.0):
    return _call(
        "call_ok", t, node, latency_ms=latency, queue_ms=queue,
        service_ms=service, slow=slow,
    )


def _cluster_late(*events, **kwargs):
    """A one-shard cluster request that completed past its deadline."""
    record = _late(*events, ("complete", events[-1][1], {}), **kwargs)
    record.update(core=None, shards=[0], wait_ms=None, service_ms=None)
    return record


#: A slot's first call fails at ``t`` and fails over to node 2.
def _failover(t, cause="node_fault"):
    return (
        _call("shard_call", 0.0, 1),
        _call("call_failed", t, 1, cause=cause),
        _call("failover", t, 2),
        _call("shard_call", t, 2),
    )


@pytest.mark.parametrize(
    "record, expected",
    [
        (_rec(), None),
        (_rec(outcome="shed", cause="queue_full"), "shed_queue_full"),
        (
            _rec(outcome="timed_out", cause="deadline_expired"),
            "expired_on_arrival",
        ),
        (_rec(outcome="timed_out", cause="queue_timeout"), "queue_timeout"),
        # Late completions take their critical path's dominant segment:
        # a fault window's inflation is penalty, not the window's name...
        (
            _late(("dispatch", 1.0, {"fault_mult": 3.0}), ("complete", 13.0, {}),
                  fault_windows=["bw_degradation"]),
            "penalty",
        ),
        # ...a retry's wait between timeout and retry is backoff...
        (
            _late(("timeout_retry", 6.0, {}), ("retry_arrive", 16.0, {}),
                  ("dispatch", 16.0, {}), ("complete", 18.0, {}), retries=1),
            "backoff",
        ),
        # ...and wait versus service is queue versus service.
        (_late(("dispatch", 5.0, {}), ("complete", 7.0, {})), "queue"),
        (_late(("dispatch", 1.0, {}), ("complete", 10.0, {})), "service"),
        (_rec(deadline_met=None), None),  # no deadline configured
        # Failed and degraded cluster requests keep their terminal causes.
        (_rec(outcome="degraded", cause="node_fault"), "node_fault"),
        (_rec(outcome="degraded", cause="partition"), "partition"),
        (_rec(outcome="failed", cause="node_fault"), "node_fault"),
        (_rec(outcome="failed", cause="partition"), "partition"),
        # A late cluster completion is its path too, whatever the record's
        # cause or failover and hedge counts: a slow failed attempt is
        # recovery...
        (
            _cluster_late(*_failover(20.0, "partition"), _ok(23.0, 2, 3.0, 0.0, 2.8),
                          cause="partition", failovers=1),
            "recovery",
        ),
        (
            _cluster_late(*_failover(20.0), _ok(23.0, 2, 3.0, 0.0, 2.8),
                          cause="node_fault", failovers=1),
            "recovery",
        ),
        # ...a quick failover whose replacement queued is queue...
        (
            _cluster_late(*_failover(1.0), _ok(18.0, 2, 17.0, 15.0, 1.8),
                          failovers=1),
            "queue",
        ),
        # ...a hedge that lost to a slow primary is the primary's service...
        (
            _cluster_late(
                _call("shard_call", 0.0, 1), _call("hedge", 6.0, 2, q_ms=6.0),
                _call("shard_call", 6.0, 2, hedge=True), _ok(20.0, 1, 20.0, 0.0, 19.8),
                hedges=1, hedges_wasted=1,
            ),
            "service",
        ),
        # ...a hedge that won after a long arm delay is hedge_wait...
        (
            _cluster_late(
                _call("shard_call", 0.0, 1), _call("hedge", 15.0, 2, q_ms=15.0),
                _call("shard_call", 15.0, 2, hedge=True), _ok(17.0, 2, 2.0, 0.0, 1.8),
                hedges=1, failovers=1, hedges_wasted=1,
            ),
            "hedge_wait",
        ),
        # ...and a slowed node's inflation is penalty.
        (
            _cluster_late(*_failover(0.5), _ok(20.7, 2, 20.2, 0.0, 20.0, slow=4.0),
                          cause="node_fault", failovers=1),
            "penalty",
        ),
    ],
)
def test_attribute_miss_cases(record, expected):
    assert attribute_miss(record) == expected
    if expected in SEGMENT_KINDS:
        path = extract_critical_path(record)
        assert check_conservation(path) == 0.0
        assert bottleneck(path.by_kind()) == expected


def test_cluster_causes_in_miss_causes_order():
    """One taxonomy: the terminal causes, the cluster ones among them,
    then the critical path's segment kinds."""
    assert MISS_CAUSES == TERMINAL_CAUSES + SEGMENT_KINDS
    for cause in ("partition", "node_fault"):
        assert cause in TERMINAL_CAUSES
    assert MISS_CAUSES.index("queue_timeout") < MISS_CAUSES.index("partition")
    assert not set(TERMINAL_CAUSES) & set(SEGMENT_KINDS)


def test_miss_attribution_orders_and_counts():
    records = [
        _rec(outcome="shed", cause="queue_full"),
        _late(("dispatch", 5.0, {}), ("complete", 6.0, {})),
        _rec(outcome="shed", cause="queue_full"),
        _rec(),
        _cluster_late(*_failover(20.0), _ok(23.0, 2, 3.0, 0.0, 2.8)),
        _late(("dispatch", 1.0, {}), ("complete", 10.0, {})),
        _late(("dispatch", 4.0, {}), ("complete", 5.0, {})),
    ]
    table = miss_attribution(records)
    assert table == {"shed_queue_full": 2, "queue": 2, "service": 1, "recovery": 1}
    assert list(table) == ["shed_queue_full", "queue", "service", "recovery"]
    assert table == Counter(filter(None, map(attribute_miss, records)))


def _assert_causes_are_bottlenecks(records):
    """Every late completion's cause is the bottleneck of its path as the
    whole run's extraction gives it, and the attribution table counts
    every miss once.  Returns the table."""
    missed = 0
    for record, path in zip(records, extract_paths(records)):
        if record["outcome"] != "completed":
            missed += 1
        elif record["deadline_met"] is False:
            missed += 1
            assert attribute_miss(record) == bottleneck(path.by_kind()), record["id"]
    table = miss_attribution(records)
    assert sum(table.values()) == missed
    return table


def test_resilient_run_misses_attributed_to_their_bottlenecks(tmp_path):
    arrivals, plan, policy = _stressed_args()
    log = RequestLog()
    with session(Observation(requests=log)):
        simulate_server(
            arrivals, 4.0, 2, np.random.default_rng(2),
            fault_plan=plan, policy=policy, label="stressed",
        )
    table = _assert_causes_are_bottlenecks(log.runs[0].records)
    assert {"shed_queue_full", "queue", "penalty"} <= set(table)
    log.to_jsonl(tmp_path / "req.jsonl")
    assert miss_attribution(load_request_log(tmp_path / "req.jsonl")[1]) == table


def test_cluster_run_misses_attributed_to_their_bottlenecks(tmp_path):
    arrivals = poisson_arrivals(0.8, 400, np.random.default_rng(3))
    faults = ClusterFaultPlan(
        [NodeCrash(1, 50.0, 120.0), NodeSlow(2, 130.0, 170.0, 4.0),
         NodePartition(0, 175.0, 185.0)],
        seed=3,
    )
    log = RequestLog()
    with session(Observation(requests=log)):
        ClusterSim(
            ClusterConfig(
                num_nodes=3, cores_per_node=2, mean_service_ms=1.0,
                num_shards=6, replication=2, gather_width=2, hop_ms=0.05,
                call_timeout_ms=12.0, deadline_ms=4.0, routing="least_loaded",
                hedge=HedgePolicy(quantile=95.0, min_ms=2.0, window=64),
                faults=faults, seed=3, label="late",
            )
        ).run(arrivals)
    table = _assert_causes_are_bottlenecks(log.runs[0].records)
    assert {"partition", "node_fault", "queue", "penalty", "recovery",
            "hedge_wait"} <= set(table)
    log.to_jsonl(tmp_path / "req.jsonl")
    assert miss_attribution(load_request_log(tmp_path / "req.jsonl")[1]) == table


# -- export ------------------------------------------------------------------


def test_export_roundtrip_and_schema(tmp_path):
    from repro.obs.requests import load_request_log

    arrivals, plan, policy = _stressed_args()
    log = RequestLog()
    with session(Observation(requests=log)):
        simulate_server(
            arrivals, 4.0, 2, np.random.default_rng(2),
            fault_plan=plan, policy=policy, label="export",
        )
    path = tmp_path / "req.jsonl"
    assert log.to_jsonl(path) == log.num_requests
    meta, records = load_request_log(path)
    assert meta["requests"] == log.num_requests
    assert len(records) == log.num_requests
    schema = json.loads(SCHEMA_PATH.read_text())
    for record in records:
        assert validate_def(record, schema, "request_event") == []


def test_export_is_deterministic_across_sessions(tmp_path):
    """Same seed + same FaultPlan => byte-identical JSONL export."""
    arrivals, _, policy = _stressed_args()
    exports = []
    for trial in range(2):
        plan = FaultPlan(
            [BandwidthDegradation(20.0, 80.0, 3.0), Stragglers(0.1, 4.0)],
            seed=3,
        )
        log = RequestLog()
        with session(Observation(requests=log)):
            simulate_server(
                arrivals, 4.0, 2, np.random.default_rng(2),
                fault_plan=plan, policy=policy, label="det",
            )
        path = tmp_path / f"req{trial}.jsonl"
        log.to_jsonl(path)
        exports.append(path.read_bytes())
    assert exports[0] == exports[1]


def test_unknown_def_name_raises():
    with pytest.raises(KeyError):
        validate_def({}, {"$defs": {"a": {}}}, "missing")
