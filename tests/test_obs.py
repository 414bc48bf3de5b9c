"""Unit tests for the repro.obs telemetry layer."""

import io
import json
import math

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.obs import hooks as obs_hooks
from repro.obs.cpi import (
    CPI_BUCKETS,
    CpiStack,
    collect_cpi_stacks,
    dense_cpi_stack,
    embedding_cpi_stack,
    format_cpi_table,
    publish_cpi_stack,
)
from repro.obs.hooks import Observation, session
from repro.obs.metrics import LOG2_MAX, LOG2_MIN, Histogram, MetricsRegistry
from repro.obs.schema import validate
from repro.obs.tracer import SIM_PID, WALL_PID, Tracer


# -- tracer ------------------------------------------------------------------


def test_wall_spans_nest_and_record_depth():
    tracer = Tracer()
    with tracer.span("outer", "test"):
        with tracer.span("inner", "test", key="v"):
            pass
    inner, outer = tracer.events  # inner closes (and records) first
    assert inner.name == "inner"
    assert inner.args["depth"] == 2
    assert inner.args["key"] == "v"
    assert outer.name == "outer"
    assert outer.args["depth"] == 1
    assert outer.pid == WALL_PID
    # The outer span brackets the inner one.
    assert outer.ts <= inner.ts
    assert outer.ts + outer.dur >= inner.ts + inner.dur


def test_sim_tracks_get_distinct_tids():
    tracer = Tracer()
    t1 = tracer.new_sim_track("a")
    t2 = tracer.new_sim_track("b")
    assert t1 != t2
    tracer.add_sim_span("work", "sim.test", 100.0, 50.0, tid=t1, args={"n": 1})
    span = tracer.find("work")[0]
    assert span.pid == SIM_PID
    assert span.ts == 100.0
    assert span.dur == 50.0
    assert span.args == {"n": 1}


def test_tracer_bounded_and_reports_drops():
    tracer = Tracer(max_events=2)
    for i in range(5):
        tracer.add_sim_span(f"s{i}", "sim.test", 0.0, 1.0)
    assert len(tracer) == 2
    assert tracer.dropped == 3
    assert tracer.chrome_dict()["otherData"]["dropped_events"] == 3


def test_chrome_export_shape(tmp_path):
    tracer = Tracer()
    with tracer.span("run", "test"):
        pass
    tid = tracer.new_sim_track("core0")
    tracer.add_sim_span("batch", "sim.test", 0.0, 10.0, tid=tid)
    path = tmp_path / "t.json"
    assert tracer.to_chrome(path) == len(tracer.events)
    payload = json.loads(path.read_text())
    events = payload["traceEvents"]
    # Two process_name metadata records lead, then the spans.
    assert [e["ph"] for e in events[:2]] == ["M", "M"]
    assert {e["pid"] for e in events[:2]} == {WALL_PID, SIM_PID}
    assert all(e["ph"] in ("X", "M") for e in events)
    # The tracer_stats metadata event carries the drop accounting in-band.
    stats = next(e for e in events if e["name"] == "tracer_stats")
    assert stats["args"]["recorded_events"] == len(tracer.events)
    assert stats["args"]["dropped_events"] == 0
    jsonl = tmp_path / "t.jsonl"
    assert tracer.to_jsonl(jsonl) == len(tracer.events)
    meta, *lines = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert meta["kind"] == "trace_meta"
    assert meta["recorded_events"] == len(tracer.events)
    assert meta["dropped_events"] == 0
    assert {rec["track"] for rec in lines} == {"wall", "sim"}


def test_chrome_export_is_one_dumps_call(tmp_path):
    """The file holds ``json.dumps(chrome_dict())`` and a newline, the same
    bytes ``json.dump``'s streaming encoder writes."""
    tracer = Tracer()
    with tracer.span("run", "test", n=3):
        pass
    tid = tracer.new_sim_track("requests")
    tracer.add_sim_batch(
        "sim.test", np.array([0.0, 2.5]), np.array([1.0, 0.125]),
        lambda i: (f"req[{i}]", {"id": f"r{i}", "cause": None, "x": i / 3}),
        tid=tid,
    )
    path = tmp_path / "t.json"
    tracer.to_chrome(path)
    written = path.read_bytes()
    assert written == (json.dumps(tracer.chrome_dict()) + "\n").encode()
    streamed = io.StringIO()
    json.dump(tracer.chrome_dict(), streamed)
    assert written == (streamed.getvalue() + "\n").encode()


# -- histogram ---------------------------------------------------------------


def test_bucket_index_half_open_log2_intervals():
    # Bucket of value v covers [2**(e-1), 2**e); powers of two start a bucket.
    assert Histogram.bucket_index(8.0) == Histogram.bucket_index(15.9)
    assert Histogram.bucket_index(8.0) != Histogram.bucket_index(7.9)
    idx = Histogram.bucket_index(8.0)
    assert Histogram.bucket_upper_bound(idx) == 16.0
    # Underflow bucket catches tiny, zero, and negative values.
    assert Histogram.bucket_index(2.0**LOG2_MIN / 2) == 0
    assert Histogram.bucket_index(0.0) == 0
    assert Histogram.bucket_index(-5.0) == 0
    # Clamp at the top.
    assert Histogram.bucket_index(2.0 ** (LOG2_MAX + 3)) == Histogram.NUM_BUCKETS - 1


def test_observe_many_matches_scalar_observe(rng):
    values = rng.lognormal(3.0, 2.0, size=500)
    scalar, vector = Histogram(), Histogram()
    for v in values:
        scalar.observe(v)
    vector.observe_many(values)
    np.testing.assert_array_equal(scalar.buckets, vector.buckets)
    assert scalar.count == vector.count
    assert math.isclose(scalar.sum, vector.sum)
    assert scalar.min == vector.min
    assert scalar.max == vector.max


def test_percentile_properties(rng):
    hist = Histogram()
    assert hist.percentile(50.0) == 0.0  # empty => 0.0 convention
    values = rng.uniform(1.0, 1000.0, size=2000)
    hist.observe_many(values)
    p50, p95, p99 = (hist.percentile(q) for q in (50.0, 95.0, 99.0))
    assert p50 <= p95 <= p99
    assert hist.min <= p50 and p99 <= hist.max
    # Log2 buckets bound the relative error of any percentile by 2x.
    exact = float(np.percentile(values, 95.0))
    assert exact / 2.0 <= p95 <= exact * 2.0
    with pytest.raises(ConfigError):
        hist.percentile(101.0)


def test_histogram_merge():
    a, b = Histogram(), Histogram()
    a.observe_many(np.array([1.0, 10.0, 100.0]))
    b.observe_many(np.array([5.0, 50.0]))
    merged = a.merge(b)
    assert merged.count == 5
    assert merged.min == 1.0
    assert merged.max == 100.0
    assert merged.buckets.sum() == 5


def test_histogram_snapshot_sparse():
    hist = Histogram("lat", (("stage", "emb"),))
    hist.observe(3.0)
    snap = hist.snapshot()
    assert snap["type"] == "histogram"
    assert snap["labels"] == {"stage": "emb"}
    assert snap["count"] == 1
    assert list(snap["buckets"].values()) == [1]
    assert snap["p50"] > 0.0


# -- registry ----------------------------------------------------------------


def test_registry_get_or_create_identity():
    reg = MetricsRegistry()
    c1 = reg.counter("mem.hits", level="l1")
    c1.inc(3)
    assert reg.counter("mem.hits", level="l1") is c1
    assert reg.counter("mem.hits", level="l2") is not c1
    assert reg.value("mem.hits", level="l1") == 3.0
    assert reg.value("mem.hits", level="l9") is None
    assert len(reg.find("mem.hits")) == 2


def test_registry_type_conflict_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(ConfigError):
        reg.gauge("x")


def test_counter_rejects_negative():
    reg = MetricsRegistry()
    with pytest.raises(ConfigError):
        reg.counter("x").inc(-1.0)


def test_registry_jsonl_roundtrip(tmp_path):
    reg = MetricsRegistry()
    reg.counter("a.b", k="v").inc(2)
    reg.gauge("c").set(1.5)
    reg.histogram("d").observe(4.0)
    path = tmp_path / "m.jsonl"
    assert reg.to_jsonl(path) == 3
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["name"] for r in records] == ["a.b", "c", "d"]  # sorted
    assert records[0]["value"] == 2.0


# -- CPI stacks --------------------------------------------------------------


def test_embedding_cpi_stack_partitions_exactly():
    stack = embedding_cpi_stack(
        "embedding",
        total_cycles=1_000_000.0,
        issue_cycles=100_000.0,
        level_hits={"l1": 500, "l3": 300, "dram": 200},
        l3_latency=50.0,
        dram_latency=290.0,
    )
    stack.check(rel_tol=1e-6)
    assert math.isclose(sum(stack.buckets.values()), 1_000_000.0, rel_tol=1e-9)
    assert stack.buckets["retire"] == 100_000.0
    assert stack.buckets["l1_bound"] == 0.0  # pipelined hits never stall
    assert stack.buckets["dram_bound"] > stack.buckets["l3_bound"]
    fractions = stack.fractions()
    assert math.isclose(sum(fractions.values()), 1.0, rel_tol=1e-9)


def test_embedding_cpi_stack_edge_cases():
    # Issue time exceeding the total clamps to all-retire.
    clamped = embedding_cpi_stack("e", 100.0, 500.0, {"l1": 1}, 50.0, 290.0)
    assert clamped.buckets["retire"] == 100.0
    clamped.check()
    # No off-chip hits: the stall residual is charged to DRAM.
    no_offchip = embedding_cpi_stack("e", 100.0, 40.0, {"l1": 10}, 50.0, 290.0)
    assert no_offchip.buckets["dram_bound"] == 60.0
    no_offchip.check()
    zero = embedding_cpi_stack("e", 0.0, 0.0, {}, 50.0, 290.0)
    assert zero.total_cycles == 0.0


def test_dense_cpi_stack():
    stack = dense_cpi_stack("top_mlp", 1000.0, 0.3)
    stack.check(rel_tol=1e-6)
    assert stack.buckets["retire"] == 700.0
    assert stack.buckets["l2_bound"] == 150.0
    assert stack.buckets["l3_bound"] == 150.0
    with pytest.raises(ConfigError):
        dense_cpi_stack("x", 100.0, 1.5)


def test_cpi_publish_collect_roundtrip():
    reg = MetricsRegistry()
    publish_cpi_stack(reg, dense_cpi_stack("top_mlp", 1000.0, 0.3))
    publish_cpi_stack(reg, dense_cpi_stack("bottom_mlp", 4000.0, 0.1))
    publish_cpi_stack(reg, dense_cpi_stack("top_mlp", 1000.0, 0.3))  # accumulates
    stacks = collect_cpi_stacks(reg)
    assert [s.stage for s in stacks] == ["bottom_mlp", "top_mlp"]  # largest first
    assert stacks[1].total_cycles == 2000.0
    for stack in stacks:
        stack.check(rel_tol=1e-6)
    table = format_cpi_table(stacks)
    assert "bottom_mlp" in table and "dram_bound" in table
    assert format_cpi_table([]) == "(no CPI data recorded)"


def test_cpi_check_rejects_bad_partition():
    bad = CpiStack("x", 100.0, {name: 0.0 for name in CPI_BUCKETS})
    with pytest.raises(ConfigError):
        bad.check()


# -- hooks -------------------------------------------------------------------


def test_session_installs_and_restores():
    assert obs_hooks.active() is None
    with session() as obs:
        assert obs_hooks.active() is obs
        assert obs_hooks.enabled()
        inner = Observation()
        with session(inner):
            assert obs_hooks.active() is inner
        assert obs_hooks.active() is obs
    assert obs_hooks.active() is None


# -- schema validator --------------------------------------------------------


def test_schema_validates_real_trace(tmp_path):
    tracer = Tracer()
    with tracer.span("run", "test"):
        pass
    tracer.add_sim_span("batch", "sim.test", 0.0, 10.0, tid=tracer.new_sim_track())
    schema = json.loads(
        (__import__("pathlib").Path(__file__).parent.parent / "tools" / "trace_schema.json")
        .read_text()
    )
    assert validate(tracer.chrome_dict(), schema) == []


def test_schema_reports_violations():
    schema = {
        "type": "object",
        "required": ["a"],
        "properties": {
            "a": {"type": "array", "minItems": 1, "items": {"type": "integer"}},
            "b": {"type": "string", "enum": ["x", "y"]},
        },
    }
    assert validate({"a": [1, 2]}, schema) == []
    assert validate({}, schema)  # missing required
    assert validate({"a": []}, schema)  # minItems
    assert validate({"a": [1.5]}, schema)  # items type
    assert validate({"a": [1], "b": "z"}, schema)  # enum
    assert validate({"a": [True]}, schema)  # bool is not an integer
    assert validate("nope", schema)  # root type
