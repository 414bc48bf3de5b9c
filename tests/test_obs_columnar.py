"""Columnar request log: columnar extraction vs scalar oracles, and
byte-identical exports.

The oracles below walk one request at a time over its record dict: a
single-box lifecycle event by event, a cluster request backward from its
slowest gather slot.  They share no code with ``repro.obs.critpath``'s
columnar extractors, which must match them bit for bit: segment kinds,
durations, nodes, shards and causes.
"""

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np
import pytest

import cluster_oracle
import serving_oracle
import test_cluster_flatloop
from repro.obs.critpath import (
    LIFECYCLE_CODES,
    CallTable,
    CriticalPath,
    FastLifecycles,
    Lifecycles,
    PathTable,
    Segment,
    aggregate_profiles,
    check_conservation,
    extract_critical_path,
    extract_fast,
    extract_lifecycles,
    extract_paths,
)
from repro.obs.hooks import Observation, session
from repro.obs.metrics import Histogram
from repro.obs.requests import RequestLog, RunLog, load_request_log
from repro.obs.slo import node_window_stats
from repro.obs.tracer import Tracer
from repro.obs.whatif import KNOBS, predict
from repro.serving.cluster import ClusterConfig, ClusterSim
from repro.serving.degradation import DegradationController, scheme_ladder
from repro.serving.faults import (
    ArrivalBurst,
    BandwidthDegradation,
    ClusterFaultPlan,
    FaultPlan,
    NodeCrash,
    NodeSlow,
    Stragglers,
)
from repro.serving.router import HedgePolicy
from repro.serving.server import OUTCOME_NAMES, ServingPolicy
from repro.serving.workload import poisson_arrivals

#: The package (``"fast"``) and the heap-loop oracle (``"reference"``):
#: both must write the pinned exports.
SIMULATORS = serving_oracle.SIMULATORS
ENGINES = tuple(SIMULATORS)


# -- the scalar oracle ----------------------------------------------------------


def _oracle_seal(path: CriticalPath) -> CriticalPath:
    if not path.segments:
        if path.total_ms != 0.0:
            path.segments.append(Segment("other", 0.0))
        else:
            return path
    remainder = path.total_ms
    for seg in path.segments[:-1]:
        remainder -= seg.dur_ms
    path.segments[-1].dur_ms = remainder
    return path


def _oracle_multiplier(event: Dict[str, object]) -> float:
    mult = 1.0
    for key in ("fault_mult", "straggler_mult", "scale"):
        value = event.get(key)
        if value is not None:
            mult *= float(value)
    return mult


def oracle_extract_single(record: Dict[str, object]) -> CriticalPath:
    """Chronological event walk of one single-box request lifecycle."""
    arrival = float(record["arrival_ms"])
    path = CriticalPath(
        req=int(record["req"]),
        id=str(record["id"]),
        outcome=str(record["outcome"]),
        arrival_ms=arrival,
        end_ms=float(record["end_ms"]),
    )
    core = record.get("core")
    node = int(core) if core is not None else None
    cursor = arrival
    mult = 1.0

    def close(kind: str, t: float, cause: Optional[str] = None) -> None:
        nonlocal cursor
        if t > cursor:
            path.segments.append(Segment(kind, t - cursor, node=node, cause=cause))
        cursor = t

    for event in record.get("events", []):
        kind = str(event.get("kind"))
        t = float(event.get("t_ms", cursor))
        if kind == "arrive":
            cursor = max(cursor, t)
        elif kind == "retry_arrive":
            close("backoff", t)
        elif kind == "dispatch":
            close("queue", t)
            mult = _oracle_multiplier(event)
        elif kind == "complete":
            span = t - cursor
            base = span / mult if mult > 0 else span
            if base > 0.0:
                path.segments.append(Segment("service", base, node=node))
            if span - base != 0.0:
                path.segments.append(
                    Segment("penalty", span - base, node=node, cause="slowdown")
                )
            cursor = t
        elif kind in ("timeout_retry", "shed", "expired", "timeout"):
            close("queue", t, cause=kind if kind != "timeout_retry" else None)
    if path.end_ms > cursor:
        path.segments.append(Segment("other", path.end_ms - cursor, node=node))
    return _oracle_seal(path)


def oracle_extract_cluster(record: Dict[str, object]) -> CriticalPath:
    """Backward blocking-chain walk of one cluster request over its event
    dicts, from its slowest gather slot.  Hedge and failover lines are
    matched to calls by time alone."""
    arrival = float(record["arrival_ms"])
    path = CriticalPath(
        req=int(record["req"]),
        id=str(record["id"]),
        outcome=str(record["outcome"]),
        arrival_ms=arrival,
        end_ms=float(record["end_ms"]),
    )
    slots: Dict[int, List[Dict[str, object]]] = {int(s): [] for s in record["shards"]}
    for event in record["events"]:
        if event.get("shard") is not None:
            slots.setdefault(int(event["shard"]), []).append(event)

    def of(events, kind: str) -> List[Dict[str, object]]:
        return [e for e in events if e["kind"] == kind]

    def resolve(events) -> float:
        oks, fails = of(events, "call_ok"), of(events, "call_failed")
        return oks[0]["t_ms"] if oks else fails[-1]["t_ms"] if fails else arrival

    if record["outcome"] == "shed" or not slots:
        return _oracle_seal(path)
    shard = min(slots, key=lambda k: (-resolve(slots[k]), k))
    events = slots[shard]
    oks, fails, calls = (of(events, k) for k in ("call_ok", "call_failed", "shard_call"))
    if not oks and not fails:
        return _oracle_seal(path)
    winner = oks[0] if oks else fails[-1]

    def submit_of(node) -> Optional[float]:
        return next((c["t_ms"] for c in calls if c["node"] == node), None)

    def cause_of(event) -> Optional[str]:
        return str(event["cause"]) if event.get("cause") else None

    def explain(t: float) -> List[Segment]:
        if t <= arrival:
            return []
        if any(e["t_ms"] == t for e in of(events, "failover")):
            lost = next((e for e in fails if e["t_ms"] == t), None)
            sub = submit_of(lost["node"]) if lost is not None else None
            if sub is not None:
                return explain(sub) + [Segment(
                    "recovery", t - sub, node=lost["node"], shard=shard,
                    cause=cause_of(lost),
                )]
        if any(e["t_ms"] == t for e in of(events, "hedge")):
            arming = max((c["t_ms"] for c in calls if c["t_ms"] < t), default=None)
            if arming is not None:
                return explain(arming) + [Segment("hedge_wait", t - arming, shard=shard)]
        return [Segment("other", t - arrival, shard=shard)]

    node, end = winner["node"], winner["t_ms"]
    submit = submit_of(node)
    if submit is None:
        path.segments.append(Segment("other", end - arrival, shard=shard))
        return _oracle_seal(path)
    path.segments.extend(explain(submit))
    span = end - submit
    if winner["kind"] == "call_failed":
        path.segments.append(
            Segment("recovery", span, node=node, shard=shard, cause=cause_of(winner))
        )
    elif winner.get("queue_ms") is None:
        path.segments.append(Segment("service", span, node=node, shard=shard))
    else:
        queue = float(winner["queue_ms"])
        service = float(winner.get("service_ms", 0.0))
        slow = float(winner.get("slow") or 1.0)
        base = service / slow if slow > 0 else service
        for kind, dur in (
            ("network", span - queue - service), ("queue", queue),
            ("service", base), ("penalty", service - base),
        ):
            if dur != 0.0:
                path.segments.append(Segment(
                    kind, dur, node=node, shard=shard,
                    cause="node_slow" if kind == "penalty" else None,
                ))
    return _oracle_seal(path)


def oracle_extract(record: Dict[str, object]) -> CriticalPath:
    if record.get("shards") is None:
        return oracle_extract_single(record)
    return oracle_extract_cluster(record)


def _fingerprint(path: CriticalPath):
    return (
        path.req, path.id, path.outcome, path.arrival_ms, path.end_ms,
        [(s.kind, s.dur_ms.hex(), s.node, s.shard, s.cause) for s in path.segments],
    )


def _assert_matches_oracle(records, paths) -> None:
    assert len(paths) == len(records)
    for record, path in zip(records, paths):
        assert _fingerprint(path) == _fingerprint(oracle_extract(record))


# -- pinned runs ----------------------------------------------------------------


def _arrivals(n=150, interarrival=1.5, seed=5):
    return poisson_arrivals(interarrival, n, np.random.default_rng(seed))


def _plain_runs(engine: str) -> None:
    """Two plain boxes: the 2-core heap loop and a loaded 16-core box."""
    simulate = SIMULATORS[engine]
    simulate(_arrivals(), 4.0, 2, np.random.default_rng(1), label="plain2")
    simulate(
        _arrivals(n=400, interarrival=0.35, seed=9), 5.0, 16,
        np.random.default_rng(2), label="plain16",
    )


def _resilient_runs(engine: str) -> None:
    """Faults, stragglers, retries, shedding, expiry and a degradation
    controller on one box; a deadline-only fault run and a run whose
    queue timeouts are terminal on two more."""
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
        deadline_ms=8.0, timeout_ms=6.0, max_retries=1,
        retry_backoff_ms=2.0, max_queue_depth=6,
    )
    controller = DegradationController(
        scheme_ladder({"baseline": 1.0, "sw_pf": 0.8}), sla_ms=8.0,
        window=16, min_samples=4, escalate_margin=0.5, recover_margin=0.2,
        cooldown=8,
    )
    simulate = SIMULATORS[engine]
    simulate(
        arrivals, 4.0, 2, np.random.default_rng(2), fault_plan=plan,
        policy=policy, controller=controller, label="stressed",
    )
    simulate(
        arrivals, 4.0, 2, np.random.default_rng(3),
        fault_plan=FaultPlan([BandwidthDegradation(20.0, 80.0, 3.0)], seed=1),
        policy=ServingPolicy(deadline_ms=8.0), label="deadline",
    )
    simulate(
        arrivals, 4.0, 2, np.random.default_rng(4),
        fault_plan=FaultPlan([Stragglers(0.2, 3.0)], seed=2),
        policy=ServingPolicy(deadline_ms=30.0, timeout_ms=5.0),
        label="timeouts",
    )


RUNS = {"plain": _plain_runs, "resilient": _resilient_runs}

#: Requests per run of the cluster session.
CLUSTER_N = 400


def _cluster_configs(horizon: float):
    """Two 4-node clusters riding out a node kill: one replicated, hedged
    and shedding at an outstanding bound, one unreplicated (degraded
    partial results)."""
    base = dict(
        num_nodes=4, cores_per_node=2, mean_service_ms=1.0, num_shards=8,
        gather_width=2, hop_ms=0.05, call_timeout_ms=12.0, deadline_ms=4.0,
        faults=ClusterFaultPlan(
            [NodeCrash(1, 0.25 * horizon, 0.6 * horizon)], seed=11
        ),
        seed=11,
    )
    return [
        ClusterConfig(
            replication=2, max_outstanding=6, label="kill_hedged",
            hedge=HedgePolicy(quantile=90.0, min_ms=1.5, window=64), **base,
        ),
        ClusterConfig(replication=1, label="kill_bare", **base),
    ]


def _cluster_arrivals():
    return _arrivals(n=CLUSTER_N, interarrival=0.3, seed=11)


def _cluster_runs(engine: str) -> None:
    """The :func:`_cluster_configs` runs.  ``"fast"`` is the package loop,
    ``"reference"`` its object-per-call oracle."""
    arrivals = _cluster_arrivals()
    for config in _cluster_configs(float(arrivals[-1])):
        if engine == "reference":
            cluster_oracle.run_cluster(ClusterSim(config), arrivals)
        else:
            ClusterSim(config).run(arrivals)


SESSIONS = {**RUNS, "cluster": _cluster_runs}


def _logged(name: str, engine: str, log: Optional[RequestLog] = None) -> Observation:
    obs = Observation(requests=log if log is not None else RequestLog())
    with session(obs):
        SESSIONS[name](engine)
    return obs


def _export_hashes(
    name: str, engine: str, prefix, log: Optional[RequestLog] = None
) -> Dict[str, str]:
    """sha256 of the request log, Chrome trace, metrics and critical-path
    profiles of one pinned observed session."""
    obs = _logged(name, engine, log)
    paths = {
        "requests": f"{prefix}_{name}_req.jsonl",
        "trace": f"{prefix}_{name}_trace.json",
        "metrics": f"{prefix}_{name}_metrics.jsonl",
    }
    obs.requests.to_jsonl(paths["requests"])
    obs.tracer.to_chrome(paths["trace"])
    obs.metrics.to_jsonl(paths["metrics"])
    out = {
        key: hashlib.sha256(Path(path).read_bytes()).hexdigest()
        for key, path in paths.items()
    }
    profiles = [
        aggregate_profiles(extract_paths(run.records), scenario=run.label)
        for run in obs.requests.runs
    ]
    out["profiles"] = hashlib.sha256(json.dumps(profiles).encode()).hexdigest()
    return out


#: sha256 of the pinned exports as the one-dict-per-request log wrote
#: them; the columnar log must reproduce every byte.
PINNED_HASHES = {
    "plain": {
        "requests": "589a83a231bd2048b5dcdaddb410ad3a411cb75c177405c9b1d9c39a6189795e",
        "trace": "47b386bea268bbd39f9e204ef451655e1d261f6b96879b59a04179edea962bac",
        "metrics": "54ed1029b0fa50d223af4b3b0faafc19ae5e1db53a6724638eef701adc7b0048",
        "profiles": "fa270a6ad7423f9494c9b143190eb7774c7e5d49bad17daf0a1fd289c8ca5fe7",
    },
    "resilient": {
        "requests": "2b70a53e3b4d0b7e16003d0c5e6f49351ae5bb7989fa654d4b3fd40eb2dc7a2d",
        "trace": "dcb47478029ab3d5d70820790f0b11af09bf190ab12da736e65e04d6d0f2d82c",
        "metrics": "ff07587ab4faca155f6ab477732fdeb7df55b97a74090c3200d0797ee82b1e3e",
        "profiles": "ad012b6d9038d842a47fe6d070ae8daf049eaf139bc8debbd4aee48d5191eb25",
    },
    "resilient_bounded": {
        "requests": "69f7a13af698f255b0dda890a48113d1242d7cd3235bc1de028ad5466c6448e1",
        "trace": "75afa818c464a88119ae1fff3b64a8e7caa1e949d9b7bd4473e833fb1da9b60e",
        "metrics": "554dca912346c4dde592fcb3d31b1aa387227160d73fe01359a291ba810b7489",
        "profiles": "f827dc492d561b47fd955d08e40ea1b82c6bd0efcbfbc4b6d7efa77cf1e24e49",
    },
    "cluster": {
        "requests": "b4368603f0124cee2d8105171760ed03f9d661803a5832ac1ae0b7f90c29a60e",
        "trace": "97b74882c4e57f481db38f0ba659ae1becb350662185adb372fabad60a32d4bd",
        "metrics": "9a738618ff098990f65b474db9fdccaac9b6f4c8d01bc27f9bd5f5a75721e6dc",
        "profiles": "07317acc4be0f36c8c74c26fc2712a1f489a50ec7f27184f1792fe3b42ec73f3",
    },
    "cluster_bounded": {
        "requests": "7e2240684b1c151641cbd3abc9ca8e3ced5f9295f5ebc4c90fea8f866600d0c1",
        "trace": "9fb69d175e54fe3f9946f14727e58bf622ea6f0cbfce1aabdb1e2bfb21939ea4",
        "metrics": "9a738618ff098990f65b474db9fdccaac9b6f4c8d01bc27f9bd5f5a75721e6dc",
        "profiles": "3b4fc147450a36ffd00e8eea63c1b8a68fca81a968cae516f2694648ea503145",
    },
}


# -- differential: columns vs the scalar oracle ------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(RUNS))
def test_columnar_extraction_matches_oracle(name, engine):
    obs = _logged(name, engine)
    for run in obs.requests.runs:
        records = list(run.records)
        paths = extract_paths(run.records)
        assert isinstance(paths, PathTable)
        _assert_matches_oracle(records, paths)


def test_resilient_runs_cover_every_lifecycle_branch():
    obs = _logged("resilient", "fast")
    records = obs.requests.records()
    outcomes = {r["outcome"] for r in records}
    causes = {r["cause"] for r in records}
    kinds = {e["kind"] for r in records for e in r["events"]}
    assert outcomes == {"completed", "shed", "timed_out"}
    assert {"queue_full", "deadline_expired", "queue_timeout"} <= causes
    assert {"timeout_retry", "retry_arrive", "shed", "expired", "timeout"} <= kinds
    assert any(r["scheme"] == "sw_pf" for r in records)
    segs = {s.kind for p in extract_paths(records) for s in p.segments}
    assert {"queue", "service", "penalty", "backoff"} <= segs


@pytest.mark.parametrize("name", sorted(RUNS))
def test_truncated_log_matches_oracle(name):
    """A max_requests bound that cuts the second run partway."""
    first_run = len(_logged(name, "fast").requests.runs[0].records)
    log = RequestLog(max_requests=first_run + 37)
    _logged(name, "fast", log)
    kept = [len(run.records) for run in log.runs]
    assert kept[:2] == [first_run, 37] and not any(kept[2:])
    assert log.dropped > 0
    for run in log.runs:
        paths = extract_paths(run.records)
        assert len(paths) == len(run.records)
        _assert_matches_oracle(list(run.records), paths)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_reloaded_records_match_oracle(name, tmp_path):
    obs = _logged(name, "fast")
    path = tmp_path / "req.jsonl"
    obs.requests.to_jsonl(path)
    _, records = load_request_log(path)
    paths = extract_paths(records)
    assert isinstance(paths, PathTable)
    _assert_matches_oracle(records, paths)
    for record in records[:20]:
        assert _fingerprint(extract_critical_path(record)) == _fingerprint(
            oracle_extract_single(record)
        )
    # The same paths whether extracted from columns or from dicts.
    live = [
        _fingerprint(p)
        for run in obs.requests.runs
        for p in extract_paths(run.records)
    ]
    assert [_fingerprint(p) for p in paths] == live


@pytest.mark.parametrize("engine", ENGINES)
def test_cluster_extraction_matches_oracle(engine, tmp_path):
    """Live and reloaded: the call table's paths are the scalar walk's."""
    obs = _logged("cluster", engine)
    path = tmp_path / "req.jsonl"
    obs.requests.to_jsonl(path)
    _, reloaded = load_request_log(path)
    for run in obs.requests.runs:
        paths = extract_paths(run.records)
        assert isinstance(paths, PathTable)
        _assert_matches_oracle(list(run.records), paths)
    _assert_matches_oracle(reloaded, extract_paths(reloaded))
    kinds = {s.kind for p in extract_paths(reloaded) for s in p.segments}
    assert {"network", "queue", "service", "recovery"} <= kinds


def test_hedged_slow_node_extraction_matches_oracle():
    """Hedges that win against a slowed node sit out their delay."""
    arrivals = _arrivals(n=600, interarrival=0.4, seed=7)
    horizon = float(arrivals[-1])
    config = ClusterConfig(
        num_nodes=4, cores_per_node=2, mean_service_ms=1.0, num_shards=8,
        replication=2, gather_width=2, hop_ms=0.05, call_timeout_ms=12.0,
        hedge=HedgePolicy(quantile=95.0, min_ms=2.0, window=64),
        faults=ClusterFaultPlan([
            NodeCrash(1, 0.25 * horizon, 0.6 * horizon),
            NodeSlow(0, 0.5 * horizon, 0.8 * horizon, factor=4.0),
        ], seed=11),
        seed=11,
    )
    log = RequestLog()
    with session(Observation(requests=log)):
        ClusterSim(config).run(arrivals)
    records = list(log.runs[0].records)
    paths = extract_paths(records)
    _assert_matches_oracle(records, paths)
    kinds = {s.kind for p in paths for s in p.segments}
    assert {"penalty", "recovery", "hedge_wait"} <= kinds


def test_mixed_records_extract_in_record_order():
    single = _logged("resilient", "fast").requests.records()
    cluster = list(_logged("cluster", "fast").requests.runs[0].records)
    mixed = single[:40] + cluster[:60] + single[40:90] + cluster[60:]
    paths = extract_paths(mixed)
    assert isinstance(paths, PathTable)
    _assert_matches_oracle(mixed, paths)
    assert {paths[i].outcome for i in range(len(paths))} >= {"shed", "timed_out"}


def oracle_node_window_stats(records, window_ms: float):
    """Per-(window, node) call counts and delivered-latency sums, walking
    every record's events in log order."""
    stamps = [
        (float(e["t_ms"]), int(e["node"]), e["kind"], float(e.get("latency_ms", 0.0)))
        for rec in records for e in rec["events"]
        if e["kind"] in ("shard_call", "call_ok", "call_failed")
    ]
    horizon = max((t for t, _, _, _ in stamps), default=0.0) or window_ms
    count = max(1, int(np.ceil(horizon / window_ms)))
    out = [{} for _ in range(count)]
    for t, node, kind, lat in stamps:
        cell = out[min(count - 1, max(0, int(t / window_ms)))].setdefault(
            node, {"calls": 0.0, "ok": 0.0, "failed": 0.0, "lat_sum": 0.0}
        )
        key = {"shard_call": "calls", "call_ok": "ok", "call_failed": "failed"}[kind]
        cell[key] += 1
        if kind == "call_ok":
            cell["lat_sum"] += lat
    return out


@pytest.mark.parametrize("window_ms", [0.7, 5.0])
def test_node_window_stats_matches_oracle(window_ms):
    """Counts and latency sums bit for bit: sums add in log order."""
    for run in _logged("cluster", "fast").requests.runs:
        calls = run.records.lifecycles()
        assert node_window_stats(calls, window_ms) == oracle_node_window_stats(
            list(run.records), window_ms
        )


def test_cluster_readers_same_from_live_and_reloaded_records(tmp_path):
    """Critical paths, fleet windows and every what-if knob read the same
    values from a run's lazy records as from its exported JSONL."""
    obs = _logged("cluster", "fast")
    path = tmp_path / "req.jsonl"
    obs.requests.to_jsonl(path)
    _, reloaded = load_request_log(path)
    arrivals = _cluster_arrivals()
    values = {
        "hedge_min_ms": 0.5, "replication_delta": 1, "gather_width": 1,
        "extra_cores": 2, "cat_partition": 0,
    }
    assert set(values) == set(KNOBS)
    for run, config in zip(obs.requests.runs, _cluster_configs(float(arrivals[-1]))):
        loaded = [rec for rec in reloaded if rec["run"] == run.index]
        assert [_fingerprint(p) for p in extract_paths(run.records)] == [
            _fingerprint(p) for p in extract_paths(loaded)
        ]
        live, parsed = run.records.lifecycles(), CallTable.from_records(loaded)
        assert node_window_stats(live, 5.0) == node_window_stats(parsed, 5.0)
        for knob, value in {**values, "gather_width": 3}.items():
            assert predict(live, config, knob, value) == predict(
                parsed, config, knob, value
            )


def _assert_same_calls(got: CallTable, want: CallTable) -> None:
    """Column for column: arrays by dtype and bytes (so NaN positions
    too), ids and name lists by value."""
    for f in dataclasses.fields(CallTable):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name
        elif f.name == "ids":
            assert [a(i) for i in range(len(got))] == [b(i) for i in range(len(want))]
        else:
            assert list(a) == list(b), f.name


def _one_parser_session(case):
    """An observed cluster session: the pinned ``cluster`` session, whole
    or cut by a log bound, or one flat-loop fuzz case."""
    if case == "cluster":
        return _logged("cluster", "fast")
    if case == "cluster_bounded":
        return _logged("cluster", "fast", RequestLog(max_requests=CLUSTER_N + 150))
    config, arrivals = test_cluster_flatloop._fuzz_case(case)
    obs = Observation(requests=RequestLog())
    with session(obs):
        ClusterSim(config).run(arrivals)
    return obs


@pytest.mark.parametrize("case", ["cluster", "cluster_bounded", *range(30)])
def test_live_call_table_is_the_parse_of_its_records(case, tmp_path):
    """One parser: a live run hands its own columns to ``CallTable.parse``
    and gets the table its record dicts and its reloaded JSONL parse to."""
    obs = _one_parser_session(case)
    path = tmp_path / "req.jsonl"
    obs.requests.to_jsonl(path)
    _, reloaded = load_request_log(path)
    for run in obs.requests.runs:
        live = run.records.lifecycles()
        assert isinstance(live, CallTable) and len(live) == len(run.records)
        _assert_same_calls(live, CallTable.from_records(list(run.records)))
        _assert_same_calls(
            live, CallTable.from_records(r for r in reloaded if r["run"] == run.index)
        )


# -- fast path: closed form vs the event walk -----------------------------------

#: The columns the closed form must reproduce byte for byte.
_TABLE_COLUMNS = (
    "req", "outcome", "arrival", "end", "seg_ptr", "seg_kind", "seg_dur",
    "seg_node", "seg_shard", "seg_cause",
)


def _assert_same_table(got: PathTable, want: PathTable) -> None:
    for name in _TABLE_COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert [got.outcome_names[o] for o in got.outcome.tolist()] == [
        want.outcome_names[o] for o in want.outcome.tolist()
    ]
    assert list(got.cause_names) == list(want.cause_names)
    assert [got.ids(i) for i in range(len(got))] == [
        want.ids(i) for i in range(len(want))
    ]


def _assert_fast_run_matches_walk(run) -> None:
    assert isinstance(run.records.lifecycles(), FastLifecycles)
    want = extract_lifecycles(Lifecycles.from_records(list(run.records)))
    _assert_same_table(extract_paths(run.records), want)


def _fast_runs(cores, rho, log, decimals=None, runs=1, n=600):
    """``runs`` fast-path boxes of ``cores`` cores at load ``rho``;
    ``decimals`` rounds the arrivals so that many of them tie."""
    with session(Observation(requests=log)):
        for k in range(runs):
            arrivals = _arrivals(n=n, interarrival=4.0 / (cores * rho), seed=10 + k)
            if decimals is not None:
                arrivals = np.round(arrivals, decimals)
            SIMULATORS["fast"](
                arrivals, 4.0, cores, np.random.default_rng(20 + k),
                label=f"fast{k}",
            )
    return log


@pytest.mark.parametrize("rho", [0.3, 0.9, 1.3])
@pytest.mark.parametrize("cores", [1, 2, 16, 64])
def test_fast_path_closed_form_matches_walk(cores, rho):
    for run in _fast_runs(cores, rho, RequestLog(), n=40 * cores + 200).runs:
        _assert_fast_run_matches_walk(run)


@pytest.mark.parametrize("cores", [1, 16, 64])
def test_fast_path_closed_form_matches_walk_on_tied_arrivals(cores):
    log = _fast_runs(cores, 0.9, RequestLog(), decimals=0)
    records = list(log.runs[0].records)
    assert any(r["wait_ms"] == 0.0 for r in records)
    assert any(r["wait_ms"] > 0.0 for r in records)
    _assert_fast_run_matches_walk(log.runs[0])


def test_fast_path_closed_form_matches_walk_on_truncated_log():
    """A max_requests bound that cuts the second run partway and keeps
    nothing of the third."""
    log = _fast_runs(16, 0.9, RequestLog(max_requests=600 + 37), runs=3)
    assert [len(run.records) for run in log.runs] == [600, 37, 0]
    assert log.dropped == 600 - 37 + 600
    for run in log.runs:
        _assert_fast_run_matches_walk(run)


def test_fast_path_closed_form_corner_cases_match_walk():
    """Lifecycles no serving run makes: a dispatch before the arrival,
    zero-length queue and service, a path with no segment but a non-zero
    total, and float dust the seal folds into the last segment."""
    arrival = np.array([0.0, 1.0, 2.0, 3.0, 5.0, 0.1, 7.0, 2.0])
    start = np.array([0.0, 1.5, 2.0, 2.5, 4.0, 0.3, 6.0, 2.0])
    end = np.array([0.0, 1.5, 2.7, 2.5, 4.5, 0.7, 5.5, 2.0])
    k = arrival.size
    ids = [f"r{i}" for i in range(k)]
    common = dict(
        req=np.arange(k), ids=ids.__getitem__, outcome=np.zeros(k, dtype=np.int64),
        outcome_names=OUTCOME_NAMES, arrival=arrival, end=end,
        node=np.arange(k, dtype=np.int64) % 3,
    )
    walked = Lifecycles(
        ev_ptr=np.arange(0, 2 * k + 1, 2),
        ev_kind=np.tile(
            [LIFECYCLE_CODES["dispatch"], LIFECYCLE_CODES["complete"]], k
        ).astype(np.int64),
        ev_t=np.column_stack((start, end)).ravel(),
        ev_mult=np.ones(2 * k),
        **common,
    )
    table = extract_fast(FastLifecycles(start=start, **common))
    _assert_same_table(table, extract_lifecycles(walked))
    kinds = {s.kind for path in table for s in path.segments}
    assert kinds == {"queue", "service", "other"}
    assert all(check_conservation(path) == 0.0 for path in table)


# -- records -----------------------------------------------------------------------


def test_records_are_a_read_only_lazy_sequence():
    obs = _logged("plain", "fast")
    records = obs.requests.runs[0].records
    assert len(records) == 150
    assert records[-1] == records[149] == list(records)[149]
    assert records[10:13] == [records[10], records[11], records[12]]
    assert records[3] is not records[3]  # built on each read
    with pytest.raises(IndexError):
        records[150]
    assert not hasattr(records, "append")


def test_cluster_run_builds_no_record_until_read(monkeypatch, tmp_path):
    built = []
    build = RunLog._record

    def counting(self, **fields):
        built.append(fields["req"])
        return build(self, **fields)

    monkeypatch.setattr(RunLog, "_record", counting)
    obs = _logged("cluster", "fast")
    obs.tracer.to_chrome(tmp_path / "trace.json")
    obs.metrics.to_jsonl(tmp_path / "metrics.jsonl")
    assert built == []  # the run, its request spans and its exemplars
    records = obs.requests.runs[0].records
    calls = records.lifecycles()
    assert len(records) == len(calls) == CLUSTER_N
    # The readers take the run's columns: critical paths, what-if, windows.
    config = _cluster_configs(float(_cluster_arrivals()[-1]))[0]
    assert len(extract_paths(records)) == CLUSTER_N
    assert predict(calls, config, "hedge_min_ms", 0.5).requests
    assert node_window_stats(calls, 5.0)
    assert built == []
    assert records[5]["shards"] and built == [5]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_single_box_run_builds_no_record_until_read(name, monkeypatch, tmp_path):
    """A single-box run's request spans are described from its columns:
    a trace export builds no record dict."""
    built = []
    build = RunLog._record

    def counting(self, **fields):
        built.append(fields["req"])
        return build(self, **fields)

    monkeypatch.setattr(RunLog, "_record", counting)
    obs = _logged(name, "fast")
    obs.tracer.to_chrome(tmp_path / "trace.json")
    obs.metrics.to_jsonl(tmp_path / "metrics.jsonl")
    assert built == []
    spans = [e for e in obs.tracer.events if e.category == "serving.request"]
    assert len(spans) == obs.requests.num_requests
    for run in obs.requests.runs:
        for record in run.records:
            span = spans.pop(0)
            assert span.name == f"req[{record['req']}]"
            assert span.args == {
                key: record[key]
                for key in ("id", "outcome", "cause", "core", "retries")
            }
    assert built and not spans


def test_outcome_names_mirror_the_server():
    from repro.obs import requests

    assert requests.OUTCOME_NAMES == OUTCOME_NAMES


# -- export byte identity ---------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(RUNS))
def test_exports_byte_identical_to_pinned(name, engine, tmp_path):
    assert _export_hashes(name, engine, tmp_path / "x") == PINNED_HASHES[name]


@pytest.mark.parametrize("engine", ENGINES)
def test_bounded_resilient_exports_byte_identical_to_pinned(engine, tmp_path):
    """A log bound that cuts the faulted, controlled run partway: only
    these digests pin how its per-request dispatch conditions are read
    for the kept requests alone."""
    log = RequestLog(max_requests=137)
    hashes = _export_hashes("resilient", engine, tmp_path / "b", log)
    assert [len(run.records) for run in log.runs] == [137, 0, 0]
    assert hashes == PINNED_HASHES["resilient_bounded"]


@pytest.mark.parametrize("engine", ENGINES)
def test_cluster_exports_byte_identical_to_pinned(engine, tmp_path):
    """Whole, and with a log bound that cuts the second run: the oracle
    writes through the same log, so only these digests pin how it
    stores and exports a cluster run."""
    hashes = _export_hashes("cluster", engine, tmp_path / "x")
    assert hashes == PINNED_HASHES["cluster"]
    log = RequestLog(max_requests=CLUSTER_N + 150)
    hashes = _export_hashes("cluster", engine, tmp_path / "b", log)
    assert [len(run.records) for run in log.runs] == [CLUSTER_N, 150]
    assert hashes == PINNED_HASHES["cluster_bounded"]


# -- tracer batches -----------------------------------------------------------------


def _spans(n: int):
    starts = np.arange(n, dtype=np.float64) * 1.5
    durs = np.full(n, 0.25)
    return starts, durs, lambda i: (f"s{i}", {"i": i})


@pytest.mark.parametrize("before", [0, 3, 7, 10, 12])
def test_span_batch_straddling_max_events_matches_single_adds(before, tmp_path):
    batched, single = Tracer(max_events=10), Tracer(max_events=10)
    for tracer in (batched, single):
        for k in range(before):
            tracer.add_sim_span(f"pre{k}", "c", float(k), 1.0)
    starts, durs, describe = _spans(6)
    batched.add_sim_batch("c", starts, durs, describe, tid=3)
    for i in range(6):
        name, args = describe(i)
        single.add_sim_span(name, "c", starts[i], durs[i], tid=3, args=args)
    batched.add_sim_span("post", "c", 0.0, 1.0)
    single.add_sim_span("post", "c", 0.0, 1.0)
    assert len(batched) == len(single)
    assert batched.dropped == single.dropped
    assert batched.events == single.events
    assert batched.chrome_dict() == single.chrome_dict()
    stats = batched.chrome_dict()["traceEvents"][2]["args"]
    assert stats["recorded_events"] == len(single)
    batched.to_jsonl(tmp_path / "a.jsonl")
    single.to_jsonl(tmp_path / "b.jsonl")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


@pytest.mark.parametrize("before", [0, 7, 12])
def test_span_batch_with_a_track_per_span_matches_single_adds(before):
    # One batch interleaving tracks and categories, as a cluster run's
    # fleet spans go over.
    batched, single = Tracer(max_events=10), Tracer(max_events=10)
    for tracer in (batched, single):
        for k in range(before):
            tracer.add_sim_span(f"pre{k}", "c", float(k), 1.0)
    starts, durs, describe = _spans(6)
    categories = ["a", "b", "a", "c", "b", "a"]
    tids = [1, 2, 1, 3, 2, 1]
    batched.add_sim_batch(categories, starts, durs, describe, tid=tids)
    for i in range(6):
        name, args = describe(i)
        single.add_sim_span(
            name, categories[i], starts[i], durs[i], tid=tids[i], args=args
        )
    assert batched.dropped == single.dropped
    assert batched.events == single.events
    assert batched.chrome_dict() == single.chrome_dict()


# -- histogram exemplars ---------------------------------------------------------------


def test_observe_exemplars_matches_per_value_loop():
    rng = np.random.default_rng(4)
    batched, looped = Histogram("h"), Histogram("h")
    for batch in range(3):
        values = rng.lognormal(1.0, 2.0, size=500)
        count = 400 if batch != 1 else 500
        ids: List[str] = [f"{batch}:{k}" for k in range(count)]
        codes = Histogram._bucket_codes(values)
        batched._observe_coded(values, codes, ids.__getitem__, count)
        for k, value in enumerate(values):
            if k < count:
                looped.observe_exemplar(float(value), ids[k])
            else:
                looped.observe(float(value))
    assert batched.count == looped.count
    assert batched.sum.hex() == looped.sum.hex()
    assert (batched.min, batched.max) == (looped.min, looped.max)
    assert np.array_equal(batched.buckets, looped.buckets)
    assert list(batched.exemplars.items()) == list(looped.exemplars.items())
