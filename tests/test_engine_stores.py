"""Output-store modeling tests (the vec.st side of Algorithm 1), an
opt-in fidelity option of the oracle's per-event loop."""

import numpy as np

from embedding_oracle import build_hierarchy, resident_level, run_embedding_trace
from repro.trace.dataset import EmbeddingTrace, TableBatch
from repro.trace.stream import AddressMap


def one_table_trace(rows, indices, pooling, batches=1):
    trace = EmbeddingTrace(rows_per_table=[rows])
    offsets = np.concatenate([[0], np.cumsum(pooling)]).astype(np.int64)
    for _ in range(batches):
        trace.append_batch(
            [TableBatch(offsets=offsets, indices=np.asarray(indices, dtype=np.int64))]
        )
    return trace


def test_stores_add_work(csl):
    trace = one_table_trace(1000, list(range(40)), [10, 10, 10, 10])
    amap = AddressMap([1000], 128)
    base = run_embedding_trace(
        trace, amap, csl.core, build_hierarchy(csl.hierarchy)
    )
    with_stores = run_embedding_trace(
        trace, amap, csl.core, build_hierarchy(csl.hierarchy), model_stores=True
    )
    assert with_stores.total_cycles > base.total_cycles
    assert with_stores.instr_count > base.instr_count


def test_store_traffic_reaches_dram(csl):
    trace = one_table_trace(1000, list(range(40)), [10, 10, 10, 10])
    amap = AddressMap([1000], 128)
    hierarchy = build_hierarchy(csl.hierarchy)
    run_embedding_trace(trace, amap, csl.core, hierarchy, model_stores=True)
    # Row lines (40 rows x 8) + output lines (4 samples x 8) all cold.
    assert hierarchy.dram.accesses >= 40 * 8 + 4 * 8


def test_output_region_does_not_alias_tables(csl):
    trace = one_table_trace(1000, [5], [1])
    amap = AddressMap([1000], 128)
    hierarchy = build_hierarchy(csl.hierarchy)
    run_embedding_trace(trace, amap, csl.core, hierarchy, model_stores=True)
    # Row 5 must still be resident: the output writes went elsewhere.
    assert resident_level(hierarchy, amap.row_first_line(0, 5)) == "l1"


def test_output_buffers_reused_across_batches(csl):
    # Same (batch index is part of the address) — different batches write
    # different regions, but within one batch the second table writes its
    # own region; totals stay proportional to samples x tables.
    trace = one_table_trace(1000, list(range(8)), [4, 4], batches=2)
    amap = AddressMap([1000], 128)
    hierarchy = build_hierarchy(csl.hierarchy)
    result = run_embedding_trace(
        trace, amap, csl.core, hierarchy, model_stores=True
    )
    # Demand loads metric still counts only embedding-row loads.
    assert result.loads == trace.total_lookups() * amap.row_lines
