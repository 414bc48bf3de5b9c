"""Engine edge cases: odd shapes, degenerate samples, policy overrides."""

import numpy as np
import pytest

import embedding_oracle as oracle
from repro.engine.embedding_exec import PrefetchPlan, run_embedding_trace
from repro.mem.hierarchy import build_hierarchy
from repro.trace.dataset import EmbeddingTrace, TableBatch
from repro.trace.stream import AddressMap


def trace_from_indices(rows, per_batch_indices, pooling):
    """Build a 1-table trace from explicit index lists."""
    trace = EmbeddingTrace(rows_per_table=[rows])
    for indices in per_batch_indices:
        offsets = np.concatenate([[0], np.cumsum(pooling)]).astype(np.int64)
        trace.append_batch(
            [TableBatch(offsets=offsets, indices=np.asarray(indices, dtype=np.int64))]
        )
    return trace


def test_zero_lookup_samples_run_cleanly(csl):
    # Sample 1 pools zero rows — the engine must not stumble.
    trace = trace_from_indices(100, [[5, 6, 7]], pooling=[2, 0, 1])
    amap = AddressMap([100], 128)
    hierarchy = build_hierarchy(csl.hierarchy)
    result = run_embedding_trace(trace, amap, csl.core, hierarchy)
    assert result.loads == 3 * amap.row_lines


def test_dim64_rows_load_four_lines(csl):
    trace = trace_from_indices(100, [[1, 2]], pooling=[2])
    amap = AddressMap([100], 64)
    hierarchy = build_hierarchy(csl.hierarchy)
    result = run_embedding_trace(trace, amap, csl.core, hierarchy)
    assert result.loads == 2 * 4


def test_single_lookup_batch(csl):
    trace = trace_from_indices(100, [[42]], pooling=[1])
    amap = AddressMap([100], 128)
    hierarchy = build_hierarchy(csl.hierarchy)
    result = run_embedding_trace(trace, amap, csl.core, hierarchy)
    assert result.loads == 8
    assert result.total_cycles > 0


def test_prefetch_distance_beyond_batch_is_noop(csl):
    # 3 lookups with distance 50: no prefetch ever fires, run still works.
    trace = trace_from_indices(100, [[1, 2, 3]], pooling=[3])
    amap = AddressMap([100], 128)
    hierarchy = build_hierarchy(csl.hierarchy)
    result = run_embedding_trace(
        trace, amap, csl.core, hierarchy, plan=PrefetchPlan(50, 8)
    )
    assert result.prefetches_issued == 0


def test_repeated_row_within_sample_hits_after_first(csl):
    trace = trace_from_indices(1000, [[7, 7, 7, 7]], pooling=[4])
    amap = AddressMap([1000], 128)
    hierarchy = build_hierarchy(csl.hierarchy)
    result = run_embedding_trace(trace, amap, csl.core, hierarchy)
    # First visit misses 8 lines; the other 3 visits hit.
    assert result.l1_hit_rate >= 0.7


def test_l3_policy_override_builds(csl):
    hierarchy = oracle.build_hierarchy(csl.hierarchy, policy="plru", l3_policy="lru")
    assert hierarchy.l1.policy_name == "plru"
    assert hierarchy.l3.policy_name == "lru"
    oracle.load(hierarchy, 5)
    assert oracle.resident_level(hierarchy, 5) == "l1"


def test_engine_with_random_policy_is_deterministic(csl):
    trace = trace_from_indices(5000, [list(range(0, 4000, 7))], pooling=[572])
    amap = AddressMap([5000], 128)
    a, b = (
        oracle.run_embedding_trace(
            trace, amap, csl.core,
            oracle.build_hierarchy(csl.hierarchy, policy="random"),
        )
        for _ in range(2)
    )
    assert a.total_cycles == b.total_cycles


def test_multiple_tables_interleave_in_execution_order(csl):
    trace = EmbeddingTrace(rows_per_table=[50, 50])
    tb0 = TableBatch(np.array([0, 1]), np.array([3]))
    tb1 = TableBatch(np.array([0, 1]), np.array([3]))
    trace.append_batch([tb0, tb1])
    amap = AddressMap([50, 50], 128)
    hierarchy = build_hierarchy(csl.hierarchy)
    result = run_embedding_trace(trace, amap, csl.core, hierarchy)
    # Same row id in different tables = different addresses: all 16 lines
    # are cold and must come from DRAM (demand or HW-prefetch fetched).
    assert result.loads == 16
    assert hierarchy.dram.accesses >= 16
