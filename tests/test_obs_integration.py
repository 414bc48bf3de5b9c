"""Integration tests: telemetry is observable when on, invisible when off.

The zero-cost-when-disabled contract of :mod:`repro.obs.hooks`: with an
observation installed, every instrumented subsystem publishes spans and
metrics; with none installed, simulation results are *byte-identical* to an
unobserved run (the hooks only read state, never perturb it).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.config import SimConfig
from repro.engine.embedding_exec import run_embedding_trace
from repro.experiments import run_experiment
from repro.experiments.base import report_to_dict
from repro.experiments.runner import main
from repro.mem.hierarchy import build_hierarchy
from repro.obs.hooks import session
from repro.obs.schema import validate
from repro.serving.server import simulate_server
from repro.serving.workload import poisson_arrivals

SCHEMA_PATH = Path(__file__).parent.parent / "tools" / "trace_schema.json"


def _report_bytes(report) -> bytes:
    return json.dumps(report_to_dict(report), sort_keys=True).encode()


def test_fast_engine_report_identical_with_tracing(sim_config):
    """ISSUE acceptance: tracing on vs off => byte-identical reports."""
    baseline = run_experiment(
        "fig1", config=SimConfig(seed=sim_config.seed),
        models=("rm2_1",),
    )
    with session() as obs:
        observed = run_experiment(
            "fig1", config=SimConfig(seed=sim_config.seed),
            models=("rm2_1",),
        )
    assert _report_bytes(baseline) == _report_bytes(observed)
    # ...and the observed run actually recorded telemetry.
    assert obs.tracer.find("experiment:fig1")
    assert obs.metrics.value("core.cycles", stage="embedding") > 0


def test_embedding_run_results_identical_under_observation(
    tiny_trace, tiny_amap, csl
):
    plain = run_embedding_trace(
        tiny_trace, tiny_amap, csl.core, build_hierarchy(csl.hierarchy)
    )
    with session() as obs:
        observed = run_embedding_trace(
            tiny_trace, tiny_amap, csl.core, build_hierarchy(csl.hierarchy)
        )
    assert plain.total_cycles == observed.total_cycles
    assert plain.batch_cycles == observed.batch_cycles
    assert plain.level_fractions == observed.level_fractions
    # The observed run published per-batch sim spans and mem counters.
    assert len(obs.tracer.find("batch[0]")) == 1
    assert obs.metrics.value("mem.demand_accesses") == plain.loads
    hist = obs.metrics.histogram("mem.load_latency_cycles")
    assert hist.count == plain.loads


def test_embedding_cpi_stack_sums_to_core_cycles(tiny_trace, tiny_amap, csl):
    from repro.obs.cpi import collect_cpi_stacks

    with session() as obs:
        result = run_embedding_trace(
            tiny_trace, tiny_amap, csl.core, build_hierarchy(csl.hierarchy)
        )
    stacks = [s for s in collect_cpi_stacks(obs.metrics) if s.stage == "embedding"]
    assert len(stacks) == 1
    stacks[0].check(rel_tol=1e-6)  # ISSUE acceptance: partition within 1e-6
    assert stacks[0].total_cycles == pytest.approx(result.total_cycles)


def test_serving_publishes_latency_metrics(rng):
    arrivals = poisson_arrivals(mean_interarrival_ms=1.0, num_requests=100, rng=rng)
    with session() as obs:
        result = simulate_server(arrivals, 1.0, 4, rng)
    assert obs.metrics.value("serving.requests") == arrivals.size
    hist = obs.metrics.histogram("serving.latency_ms")
    assert hist.count == arrivals.size
    assert result.latency_hist.count == arrivals.size


def test_hyperthread_schedulers_emit_smt_telemetry(
    tiny_trace, tiny_amap, tiny_model, csl
):
    from repro.core.hyperthread import mp_ht_batch_cycles
    from repro.engine.inference import time_inference_sequential

    with session() as obs:
        emb = run_embedding_trace(
            tiny_trace, tiny_amap, csl.core, build_hierarchy(csl.hierarchy)
        )
        timing = time_inference_sequential(tiny_model, emb, csl.core, 4)
        mp_ht_batch_cycles(timing)
    assert obs.tracer.find("embedding || bottom_mlp")
    assert obs.metrics.value("smt.mp_ht.overlap_saved_cycles") is not None
    # Dense stages of the inference published CPI stacks alongside.
    assert obs.metrics.value("core.cycles", stage="bottom_mlp") > 0


# -- runner CLI --------------------------------------------------------------


def test_runner_trace_metrics_cpi_flags(tmp_path, capsys):
    trace_path = tmp_path / "t.json"
    metrics_path = tmp_path / "m.jsonl"
    assert main([
        "--experiment", "fig5", "--scale", "0.01", "--batch-size", "8",
        "--num-batches", "1",
        "--trace", str(trace_path), "--metrics", str(metrics_path), "--cpi-stack",
    ]) == 0
    out = capsys.readouterr().out
    assert "[trace:" in out and "[metrics:" in out
    trace = json.loads(trace_path.read_text())
    schema = json.loads(SCHEMA_PATH.read_text())
    assert validate(trace, schema) == []
    names = [e["name"] for e in trace["traceEvents"]]
    assert "experiment:fig5" in names
    for line in metrics_path.read_text().splitlines():
        json.loads(line)


def test_runner_experiment_flag_is_positional_alias(capsys):
    assert main(["--experiment", "table1"]) == 0
    assert "RMC2" in capsys.readouterr().out


def test_runner_rejects_conflicting_or_missing_experiment(capsys):
    with pytest.raises(SystemExit):
        main(["table1", "--experiment", "table2"])
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main([])
    capsys.readouterr()


def test_trace_report_tool(tmp_path, capsys):
    trace_path = tmp_path / "t.json"
    metrics_path = tmp_path / "m.jsonl"
    assert main([
        "--experiment", "fig5", "--scale", "0.01", "--batch-size", "8",
        "--num-batches", "1",
        "--trace", str(trace_path), "--metrics", str(metrics_path),
    ]) == 0
    capsys.readouterr()
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "trace_report", Path(__file__).parent.parent / "tools" / "trace_report.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    assert mod.main([
        str(trace_path), "--metrics", str(metrics_path), "--validate"
    ]) == 0
    out = capsys.readouterr().out
    assert "schema OK" in out
    assert "wall spans" in out
