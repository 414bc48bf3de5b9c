"""The observatory CLIs: bench_all, bench_gate, obs_dashboard, trace_report."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.obs.regress import Benchmark, append_record, make_record

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_gate():
    return _load_tool("bench_gate")


@pytest.fixture(scope="module")
def obs_dashboard():
    return _load_tool("obs_dashboard")


def _record(p95, tput=100.0, timestamp="2026-01-01T00:00:00"):
    return make_record(
        "smoke",
        1,
        [
            Benchmark("serving.p95_ms", p95, "ms", direction="lower"),
            Benchmark(
                "engine.tput", tput, "l/s", direction="higher",
                noise_floor=0.15 * tput, kind="wall",
            ),
        ],
        timestamp=timestamp,
    )


def _write_jsonl(path, lines):
    path.write_text("".join(json.dumps(l) + "\n" for l in lines))
    return path


#: A one-request log: the request was shed at admission.
_SHED_LOG_LINES = [
    {"kind": "request_log_meta", "schema_version": 1, "runs": 1,
     "requests": 1, "dropped": 0},
    {"kind": "request", "outcome": "shed", "cause": "queue_full",
     "deadline_met": None, "fault_windows": [], "retries": 0},
]

#: One stage's cycles and CPI bucket plus one latency histogram.
_METRIC_LINES = [
    {"name": "core.cycles", "type": "counter", "value": 1000.0,
     "labels": {"stage": "embedding"}},
    {"name": "core.cpi.dram_bound", "type": "counter", "value": 600.0,
     "labels": {"stage": "embedding"}},
    {"name": "serving.latency_ms", "type": "histogram", "labels": {},
     "count": 4, "sum": 10.0, "min": 1.0, "max": 4.0, "p50": 2.5,
     "p95": 3.9, "p99": 4.0},
]


# -- bench_gate --------------------------------------------------------------


def test_gate_passes_with_short_history(bench_gate, tmp_path, capsys):
    path = tmp_path / "hist.jsonl"
    assert bench_gate.main(["--history", str(path)]) == 0
    append_record(path, _record(30.0))
    assert bench_gate.main(["--history", str(path)]) == 0
    assert "nothing to compare" in capsys.readouterr().out


def test_gate_passes_on_identical_rerun(bench_gate, tmp_path, capsys):
    path = tmp_path / "hist.jsonl"
    append_record(path, _record(30.0))
    append_record(path, _record(30.0))
    assert bench_gate.main(["--history", str(path)]) == 0
    assert "bench gate OK" in capsys.readouterr().out


def test_gate_fails_naming_benchmark_and_delta(bench_gate, tmp_path, capsys):
    """ISSUE acceptance: >=20% synthetic regression => nonzero exit + name."""
    path = tmp_path / "hist.jsonl"
    append_record(path, _record(30.0))
    append_record(path, _record(39.0))  # +30% on lower-is-better
    assert bench_gate.main(["--history", str(path)]) == 1
    err = capsys.readouterr().err
    assert "REGRESSION serving.p95_ms" in err
    assert "+30.0% worse" in err


def test_gate_skips_wall_by_default_includes_on_flag(
    bench_gate, tmp_path, capsys
):
    path = tmp_path / "hist.jsonl"
    append_record(path, _record(30.0, tput=100.0))
    append_record(path, _record(30.0, tput=40.0))  # -60% wall throughput
    assert bench_gate.main(["--history", str(path)]) == 0
    assert bench_gate.main(["--history", str(path), "--include-wall"]) == 1
    assert "REGRESSION engine.tput" in capsys.readouterr().err


# -- obs_dashboard -----------------------------------------------------------


def test_dashboard_renders_all_sections(obs_dashboard, tmp_path, capsys):
    hist = tmp_path / "hist.jsonl"
    append_record(hist, _record(30.0, timestamp="2026-01-01T00:00:00"))
    append_record(hist, _record(33.0, timestamp="2026-01-02T00:00:00"))
    metrics = _write_jsonl(tmp_path / "metrics.jsonl", _METRIC_LINES)
    reqlog = _write_jsonl(tmp_path / "req.jsonl", _SHED_LOG_LINES)
    out = tmp_path / "dash.html"
    assert obs_dashboard.main(
        [
            "--history", str(hist), "--metrics", str(metrics),
            "--request-log", str(reqlog), "--out", str(out),
        ]
    ) == 0
    page = out.read_text()
    assert "benchmark trajectories (2 record(s))" in page
    assert "serving.p95_ms" in page
    assert "<svg" in page  # sparkline rendered
    assert "CPI stacks" in page
    assert "dram_bound" in page
    assert "SLA-miss attribution" in page
    assert "shed_queue_full" in page
    # +10% move on a lower-is-better benchmark renders as worse.
    assert 'class="worse"' in page


def test_dashboard_handles_missing_inputs(obs_dashboard, tmp_path):
    out = tmp_path / "dash.html"
    assert obs_dashboard.main(
        ["--history", str(tmp_path / "absent.jsonl"), "--out", str(out)]
    ) == 0
    assert "no artifacts" in out.read_text()


# -- bench_all (tiny run) ----------------------------------------------------


@pytest.mark.slow
def test_bench_all_smoke_appends_schema_valid_record(tmp_path):
    from repro.obs.schema import validate_def

    bench_all = _load_tool("bench_all")
    hist = tmp_path / "hist.jsonl"
    assert bench_all.main(
        ["--mode", "smoke", "--repeats", "1", "--history", str(hist)]
    ) == 0
    lines = [json.loads(l) for l in hist.read_text().splitlines()]
    assert len(lines) == 1
    record = lines[0]
    schema = json.loads((REPO_ROOT / "tools" / "trace_schema.json").read_text())
    assert validate_def(record, schema, "bench_record") == []
    kinds = {b["kind"] for b in record["benchmarks"].values()}
    assert kinds == {"sim", "wall"}
    assert "serving.resilient.p95_ms" in record["benchmarks"]
    assert "scheme.mp_ht.speedup" in record["benchmarks"]
    # bench_gate compares only the rows two records share, so a row the
    # suite stops emitting would fail no gate: pin the series continuity
    # against the newest committed record.
    committed = (REPO_ROOT / "BENCH_history.jsonl").read_text().splitlines()
    newest = json.loads(committed[-1])
    assert set(record["benchmarks"]) == set(newest["benchmarks"])


#: Every ``sim`` row of the ledger: the value each one has held in every
#: record of ``BENCH_history.jsonl`` (smoke mode, Python 3.11).
LEDGER_SIM_ROWS = {
    "scheme.dp_ht.speedup": 0.7514519687574891,
    "scheme.mp_ht.speedup": 1.0046927039843105,
    "scheme.integrated.speedup": 1.715160663174602,
    "serving.fast.p95_ms": 6.989337678264521,
    "serving.resilient.p50_ms": 4.865455539346158,
    "serving.resilient.p95_ms": 30.203219460063554,
    "serving.resilient.p99_ms": 104.28724390684012,
    "serving.resilient.goodput": 0.67,
    "cluster.resilient.goodput": 1.0,
    "cluster.resilient.quality_p95_ms": 4.340736233863873,
    "cluster.resilient.p99_ms": 4.7837232868452375,
    "obs.fleet.detection.recall": 1.0,
    "obs.fleet.detection.mttd_ms": 15.151515151515156,
    "obs.critpath.conserved_frac": 1.0,
    "obs.critpath.whatif.max_err_frac": 0.15110660852050622,
    "tenants.detection.recall": 1.0,
    "tenants.detection.mttd_ms": 18.732415357254638,
    "tenants.qos.goodput_recovery": 1.0,
}


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="the ledger was recorded on 3.11"
)
def test_bench_all_sim_rows_equal_the_ledger():
    """bench_all's smoke helpers reproduce every exact row bit for bit."""
    bench_all = _load_tool("bench_all")
    benchmarks = [
        *bench_all._scheme_benchmarks("smoke"),
        *bench_all._serving_benchmarks("smoke"),
        *bench_all._cluster_benchmarks("smoke"),
        *bench_all._fleet_benchmarks("smoke", 1),
        *bench_all._critpath_benchmarks("smoke", 1),
        *bench_all._tenant_benchmarks("smoke"),
    ]
    sim = {b.name: b.value for b in benchmarks if b.kind == "sim"}
    assert sim == LEDGER_SIM_ROWS


# -- trace_report --requests -------------------------------------------------


def test_trace_report_requests_mode(tmp_path, capsys):
    import numpy as np

    from repro.obs import RequestLog
    from repro.obs.hooks import Observation, session
    from repro.serving.faults import BandwidthDegradation, FaultPlan
    from repro.serving.server import ServingPolicy, simulate_server
    from repro.serving.workload import poisson_arrivals

    trace_report = _load_tool("trace_report")
    arrivals = poisson_arrivals(1.2, 120, np.random.default_rng(4))
    log = RequestLog()
    with session(Observation(requests=log)):
        simulate_server(
            arrivals, 4.0, 2, np.random.default_rng(2),
            fault_plan=FaultPlan(
                [BandwidthDegradation(20.0, 90.0, 3.0)], seed=1
            ),
            policy=ServingPolicy(
                deadline_ms=8.0, timeout_ms=6.0, max_queue_depth=6
            ),
            label="report-test",
        )
    path = tmp_path / "req.jsonl"
    log.to_jsonl(path)
    assert trace_report.main(
        ["--requests", str(path), "--validate", "--top", "3"]
    ) == 0
    out = capsys.readouterr().out
    assert "schema OK" in out
    assert "SLA-miss attribution" in out
    assert "slowest 3 requests" in out
    assert "report-test" in out


def test_trace_report_requires_some_input(capsys):
    trace_report = _load_tool("trace_report")
    with pytest.raises(SystemExit):
        trace_report.main([])



def test_trace_report_metrics_without_trace(tmp_path, capsys):
    """--metrics renders with any mix of inputs, not only with a trace."""
    trace_report = _load_tool("trace_report")
    req = _write_jsonl(tmp_path / "req.jsonl", _SHED_LOG_LINES)
    metrics = _write_jsonl(tmp_path / "m.jsonl", _METRIC_LINES)
    assert trace_report.main(
        ["--requests", str(req), "--metrics", str(metrics)]
    ) == 0
    out = capsys.readouterr().out
    assert "== CPI stacks ==" in out
    assert "== latency histograms ==" in out
    assert "SLA-miss attribution" in out


def test_trace_report_fleet_needs_trace(tmp_path, capsys):
    trace_report = _load_tool("trace_report")
    req = _write_jsonl(tmp_path / "req.jsonl", _SHED_LOG_LINES)
    with pytest.raises(SystemExit):
        trace_report.main(["--fleet", "--requests", str(req)])
    assert "--fleet needs a trace file" in capsys.readouterr().err


@pytest.mark.parametrize("top", ["0", "-1"])
def test_trace_report_rejects_nonpositive_top(tmp_path, capsys, top):
    trace_report = _load_tool("trace_report")
    req = _write_jsonl(tmp_path / "req.jsonl", _SHED_LOG_LINES)
    with pytest.raises(SystemExit):
        trace_report.main(["--requests", str(req), "--top", top])
    assert "--top" in capsys.readouterr().err

# -- fleet view + SLO log (PR 8) ---------------------------------------------


def _cluster_artifacts(tmp_path):
    """One small traced+logged cluster run -> (trace.json, req.jsonl)."""
    from repro.config import SimConfig
    from repro.obs import RequestLog
    from repro.obs.hooks import Observation, session
    from repro.serving.cluster import ClusterConfig, ClusterSim
    from repro.serving.faults import ClusterFaultPlan, NodeCrash
    from repro.serving.router import HedgePolicy
    from repro.serving.workload import poisson_arrivals

    config = SimConfig(seed=3)
    arrivals = poisson_arrivals(0.5, 400, config.rng("t:arr"))
    obs = Observation(requests=RequestLog())
    with session(obs):
        ClusterSim(
            ClusterConfig(
                num_nodes=3, cores_per_node=2, mean_service_ms=1.0,
                num_shards=6, replication=2, gather_width=2, hop_ms=0.05,
                call_timeout_ms=12.0, deadline_ms=50.0,
                routing="least_loaded",
                hedge=HedgePolicy(quantile=95.0, min_ms=2.0, window=64),
                faults=ClusterFaultPlan([NodeCrash(1, 50.0, 120.0)], seed=3),
                seed=3, label="tools-fleet",
            )
        ).run(arrivals)
    trace_path = tmp_path / "t.json"
    req_path = tmp_path / "req.jsonl"
    obs.tracer.to_chrome(trace_path)
    obs.requests.to_jsonl(req_path)
    return trace_path, req_path


#: A two-line SLO log: one window of one SLO and one fired detector alert.
_SLO_LINES = [
    {"kind": "slo_log_meta", "schema_version": 1, "window_ms": 10.0,
     "scenarios": ["none"], "lines": 2},
    {"kind": "slo_state", "schema_version": 1, "slo": "avail",
     "slo_kind": "availability", "objective": 0.99, "t_ms": 10.0,
     "window_ms": 10.0, "good": 5, "total": 5, "compliance": 1.0,
     "burn_rate": 0.0, "budget_remaining": 1.0, "scenario": "none"},
    {"kind": "alert", "schema_version": 1, "source": "detector",
     "name": "node0.error_rate", "state": "firing", "t_ms": 20.0,
     "node": 0, "score": 9.0, "scenario": "none"},
]

#: A two-line critpath log: one overall profile and one what-if record.
_CRITPATH_LINES = [
    {"kind": "critpath_log_meta", "schema_version": 1,
     "scenarios": ["noisy"], "lines": 2},
    {"kind": "critpath_profile", "schema_version": 1,
     "scenario": "noisy", "scope": "overall", "requests": 10,
     "total_ms": 40.0, "segments": {"queue": 25.0, "service": 15.0},
     "bottleneck": "queue"},
    {"kind": "whatif", "schema_version": 1, "scenario": "noisy",
     "knob": "hedge_min_ms", "value": 6.0, "metric": "p99_ms",
     "baseline": 15.0, "predicted": 12.0, "actual": 12.5,
     "within_bounds": True, "requests": 10, "estimated": False},
]


def test_trace_report_fleet_view_and_node_column(tmp_path, capsys):
    trace_report = _load_tool("trace_report")
    trace_path, req_path = _cluster_artifacts(tmp_path)
    assert trace_report.main(
        [str(trace_path), "--fleet", "--requests", str(req_path),
         "--validate", "--top", "3"]
    ) == 0
    out = capsys.readouterr().out
    assert "schema OK" in out
    assert "per-node attempts" in out
    assert "router decisions" in out
    assert "request outcomes" in out
    # Satellite fix: the slowest-N head line names the serving node(s).
    assert "node=" in out


def test_trace_report_slo_mode(tmp_path, capsys):
    trace_report = _load_tool("trace_report")
    path = _write_jsonl(tmp_path / "slo.jsonl", _SLO_LINES)
    assert trace_report.main(["--slo", str(path), "--validate"]) == 0
    out = capsys.readouterr().out
    assert "schema OK" in out
    assert "SLO error budgets" in out
    assert "alerts fired (1)" in out


# -- critical path + what-if (PR 10) -----------------------------------------


def test_trace_report_critpath_from_requests(tmp_path, capsys):
    trace_report = _load_tool("trace_report")
    _, req_path = _cluster_artifacts(tmp_path)
    assert trace_report.main(
        ["--requests", str(req_path), "--critpath", "--validate", "--top", "3"]
    ) == 0
    out = capsys.readouterr().out
    assert "schema OK" in out
    assert "conservation: 400 request(s), 0 violation(s)" in out
    assert "critical-path profiles" in out
    assert "bottleneck" in out


def test_trace_report_critpath_needs_requests(capsys):
    trace_report = _load_tool("trace_report")
    with pytest.raises(SystemExit):
        trace_report.main(["--critpath"])


def test_trace_report_critpath_log_mode(tmp_path, capsys):
    trace_report = _load_tool("trace_report")
    path = _write_jsonl(tmp_path / "critpath.jsonl", _CRITPATH_LINES)
    assert trace_report.main(["--critpath-log", str(path), "--validate"]) == 0
    out = capsys.readouterr().out
    assert "schema OK" in out
    assert "critical-path profiles" in out
    assert "what-if predictions" in out
    assert "noisy/hedge_min_ms" in out


def test_trace_report_critpath_log_rejects_bad_record(tmp_path, capsys):
    trace_report = _load_tool("trace_report")
    path = tmp_path / "critpath.jsonl"
    bad = {"kind": "whatif", "schema_version": 1, "scenario": "x",
           "knob": "warp_drive", "value": 1.0, "metric": "p99_ms",
           "baseline": 1.0, "predicted": 1.0, "actual": None,
           "within_bounds": None, "requests": 1, "estimated": False}
    path.write_text(json.dumps(bad) + "\n")
    assert trace_report.main(["--critpath-log", str(path), "--validate"]) == 1
    err = capsys.readouterr().err
    assert "schema violation" in err


def test_trace_report_json_format(tmp_path, capsys):
    trace_report = _load_tool("trace_report")
    _, req_path = _cluster_artifacts(tmp_path)
    assert trace_report.main(
        ["--requests", str(req_path), "--critpath", "--validate",
         "--format", "json"]
    ) == 0
    captured = capsys.readouterr()
    document = json.loads(captured.out)  # stdout is one JSON document
    assert "schema OK" not in captured.out  # diagnostics go to stderr
    assert "schema OK" in captured.err
    assert document["requests"]["slowest"]  # top-N rows present as data
    critpath = document["critpath"]
    assert critpath["conservation"][0]["requests"] == 400
    assert critpath["conservation"][0]["violations"] == 0
    scopes = {r["scope"] for r in critpath["profiles"]}
    assert "overall" in scopes


def test_miss_attribution_sorted_by_count_then_cause(tmp_path, capsys):
    """Satellite fix: attribution rows render most-frequent first."""
    trace_report = _load_tool("trace_report")
    log = [{"kind": "request_log_meta", "schema_version": 1, "runs": 1,
            "requests": 6, "dropped": 0}]
    for i in range(6):
        log.append({
            "kind": "request", "schema_version": 1, "run": 0,
            "label": "sorted", "req": i, "id": f"0:{i}", "injected": False,
            "arrival_ms": float(i), "deadline_ms": 1.0,
            "outcome": "failed" if i < 4 else "shed",
            "cause": None if i < 4 else "queue_full", "retries": 0,
            "backoff_ms": 0.0, "wait_ms": None, "service_ms": None,
            "latency_ms": None, "end_ms": float(i) + 5.0, "core": None,
            "degradation_level": None, "scheme": None, "fault_windows": [],
            "deadline_met": False, "events": [],
        })
    path = tmp_path / "req.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in log))
    assert trace_report.main(["--requests", str(path), "--top", "1"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l and l.split()[0] in
             ("node_fault", "shed_queue_full")]
    assert len(lines) == 2
    assert lines[0].startswith("node_fault")  # 4 > 2: biggest cause first


def test_dashboard_fleet_and_slo_sections(obs_dashboard, tmp_path):
    trace_path, req_path = _cluster_artifacts(tmp_path)
    slo_path = tmp_path / "slo.jsonl"
    slo_path.write_text(
        json.dumps(
            {"kind": "slo_state", "schema_version": 1, "slo": "avail",
             "slo_kind": "availability", "objective": 0.99, "t_ms": 10.0,
             "window_ms": 10.0, "good": 5, "total": 5, "compliance": 1.0,
             "burn_rate": 0.0, "budget_remaining": 1.0, "scenario": "none"}
        )
        + "\n"
    )
    out = tmp_path / "dash.html"
    assert obs_dashboard.main(
        ["--history", str(tmp_path / "absent.jsonl"),
         "--request-log", str(req_path), "--slo-log", str(slo_path),
         "--out", str(out)]
    ) == 0
    page = out.read_text()
    assert "fleet view" in page
    assert "node health" in page
    assert "shard calls (node x shard)" in page
    assert "error budget" in page
    assert "completed latency" in page


def test_dashboard_zero_completed_requests_blank_not_nan(
    obs_dashboard, tmp_path
):
    """Satellite fix: a cluster log where nothing completed renders blank
    percentile cells, never NaN, and never crashes."""
    reqlog = tmp_path / "req.jsonl"
    meta = {"kind": "request_log_meta", "schema_version": 1, "runs": 1,
            "requests": 2, "dropped": 0}
    shed = {
        "kind": "request", "req": 0, "id": "0:0", "outcome": "shed",
        "cause": "queue_full", "latency_ms": None, "deadline_met": None,
        "fault_windows": [], "retries": 0, "arrival_ms": 0.0, "end_ms": 1.0,
        "shards": [0],
        "events": [{"kind": "shard_call", "t_ms": 0.5, "node": 0, "shard": 0},
                   {"kind": "call_failed", "t_ms": 1.0, "node": 0,
                    "shard": 0, "cause": "crash"}],
    }
    reqlog.write_text(
        json.dumps(meta) + "\n" + json.dumps(shed) + "\n"
        + json.dumps(shed) + "\n"
    )
    out = tmp_path / "dash.html"
    assert obs_dashboard.main(
        ["--history", str(tmp_path / "absent.jsonl"),
         "--request-log", str(reqlog), "--out", str(out)]
    ) == 0
    page = out.read_text()
    assert "no completed requests" in page
    assert "nan" not in page.lower()


# -- golden output: every view, pinned ---------------------------------------


#: Fields the view documents gained after the digests below were pinned,
#: mirrored by document path ("*" matches every key of a mapping; a list
#: applies its spec to every element).  They are dropped before hashing,
#: so each pinned JSON digest still proves every older field kept its
#: name and value.
_ADDED_JSON_FIELDS = {
    "trace": {"wall": {"depth": None}},
    "fleet": {"spans": None, "per_node": {"*": {"max_ms": None}}},
    "requests": {
        "records": None, "missed": None, "totals": None,
        "slowest": {
            field: None
            for field in ("label", "wait_ms", "service_ms", "core", "nodes",
                          "failovers", "hedges", "hedges_wasted",
                          "fault_windows", "events")
        },
    },
    "slo": {"alert_records": None,
            "budgets": {"alerts": None, "budget_series": None}},
    "critpath": {"headline": None},
    "critpath_log": {"headline": None},
}

#: sha256 prefixes of every report on the golden inputs.
_GOLDEN = {
    "box": "69938e33637e7f7f",
    "box.json": "7051d7eec5d3b1f1",
    "cluster": "c34722c42d0b585e",
    "cluster.json": "f7903da84618b06e",
    "critpath_log": "9eb4d108c8525475",
    "critpath_log.json": "9de0668bea3b6198",
    "dashboard_box": "8be1049bb506b0ef",
    "dashboard_fleet": "3a0f0496893267c5",
    "slo": "99361857e7008ae6",
    "slo.json": "627dc88da07391fa",
}


def _drop_fields(node, spec):
    if isinstance(node, list):
        return [_drop_fields(item, spec) for item in node]
    if not isinstance(node, dict):
        return node
    out = {}
    for key, value in node.items():
        sub = spec.get(key, spec.get("*", {}))
        if sub is not None:
            out[key] = _drop_fields(value, sub) if sub else value
    return out


def _pin_wall_spans(trace_path):
    """Replace the host-time durations of pid-1 wall spans by fixed ones."""
    trace = json.loads(trace_path.read_text())
    wall = [e for e in trace["traceEvents"]
            if e.get("ph") == "X" and e.get("pid") == 1]
    for i, event in enumerate(wall):
        event["ts"], event["dur"] = 0.0, 1000.0 * (len(wall) - i)
    trace_path.write_text(json.dumps(trace))


def _golden_inputs(tmp_path):
    """The deterministic artifacts every golden report is computed from."""
    from repro.experiments.runner import main as runner_main

    box = {name: tmp_path / f"box_{name}" for name in
           ("t.json", "m.jsonl", "req.jsonl")}
    assert runner_main(
        ["--experiment", "resilience", "--scale", "0.01",
         "--batch-size", "8", "--num-batches", "2", "--num-cores", "4",
         "--num-requests", "300", "--trace", str(box["t.json"]),
         "--metrics", str(box["m.jsonl"]),
         "--request-log", str(box["req.jsonl"])]
    ) == 0
    cluster_dir = tmp_path / "cluster"
    cluster_dir.mkdir()
    cluster_trace, cluster_req = _cluster_artifacts(cluster_dir)
    for trace_path in (box["t.json"], cluster_trace):
        _pin_wall_spans(trace_path)
    hist = tmp_path / "hist.jsonl"
    append_record(hist, _record(30.0, timestamp="2026-01-01T00:00:00"))
    append_record(hist, _record(33.0, timestamp="2026-01-02T00:00:00"))
    return {
        "box_trace": box["t.json"], "box_metrics": box["m.jsonl"],
        "box_req": box["req.jsonl"], "cluster_trace": cluster_trace,
        "cluster_req": cluster_req, "history": hist,
        "slo": _write_jsonl(tmp_path / "slo.jsonl", _SLO_LINES),
        "critpath": _write_jsonl(tmp_path / "critpath.jsonl", _CRITPATH_LINES),
    }


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_reports_match_golden_digests(obs_dashboard, tmp_path, capsys):
    """Every text view, JSON document and dashboard page on fixed inputs."""
    trace_report = _load_tool("trace_report")
    f = {k: str(v) for k, v in _golden_inputs(tmp_path).items()}
    capsys.readouterr()
    reports = {
        "box": [f["box_trace"], "--metrics", f["box_metrics"],
                "--requests", f["box_req"], "--critpath", "--top", "5"],
        "cluster": [f["cluster_trace"], "--fleet", "--requests",
                    f["cluster_req"], "--critpath", "--top", "3"],
        "slo": ["--slo", f["slo"]],
        "critpath_log": ["--critpath-log", f["critpath"]],
    }
    digests = {}
    for name, argv in reports.items():
        assert trace_report.main(argv) == 0
        digests[name] = _sha(capsys.readouterr().out)
        assert trace_report.main(argv + ["--format", "json"]) == 0
        document = _drop_fields(
            json.loads(capsys.readouterr().out), _ADDED_JSON_FIELDS
        )
        digests[name + ".json"] = _sha(json.dumps(document, sort_keys=True))
    pages = {
        "dashboard_box": ["--metrics", f["box_metrics"],
                          "--request-log", f["box_req"]],
        "dashboard_fleet": ["--request-log", f["cluster_req"],
                            "--slo-log", f["slo"],
                            "--critpath-log", f["critpath"]],
    }
    for name, argv in pages.items():
        out = tmp_path / f"{name}.html"
        assert obs_dashboard.main(
            ["--history", f["history"], "--out", str(out)] + argv
        ) == 0
        digests[name] = _sha(out.read_text())
    capsys.readouterr()
    assert digests == _GOLDEN
