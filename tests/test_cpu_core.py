"""Out-of-order core model tests.

The per-event issue methods are the oracle's (``OracleCore``); the
package drives the same model in bulk.
"""

import pytest

from embedding_oracle import OracleCore
from repro.cpu.core import CoreModel, CoreSpec
from repro.errors import ConfigError


@pytest.fixture
def spec():
    return CoreSpec(
        rob_entries=64, issue_width=4, l1_mshrs=8, demand_concurrency=4
    )


def test_spec_validation():
    with pytest.raises(ConfigError):
        CoreSpec(rob_entries=0)
    with pytest.raises(ConfigError):
        CoreSpec(issue_width=0)
    with pytest.raises(ConfigError):
        CoreSpec(demand_concurrency=20, l1_mshrs=10)


def test_window_mlp_formula():
    spec = CoreSpec(rob_entries=224, l1_mshrs=12)
    # 50-instruction lookups: window allows 224/50 ≈ 4.5 concurrent misses.
    assert spec.window_mlp(50) == pytest.approx(4.48)
    # Tiny spacing: MSHRs bind.
    assert spec.window_mlp(1) == 12


def test_compute_only_time_is_issue_bound(spec):
    core = OracleCore(spec)
    core.issue_compute(400)
    assert core.drain() == pytest.approx(100.0)
    assert core.utilization == pytest.approx(1.0)


def test_hits_are_pipelined(spec):
    core = OracleCore(spec)
    for _ in range(100):
        core.issue_load(5.0, is_miss=False)
    assert core.drain() == pytest.approx(25.0)  # pure issue cost
    assert core.misses == 0


def test_single_miss_exposed_at_drain(spec):
    core = OracleCore(spec)
    core.issue_load(200.0, is_miss=True)
    assert core.drain() == pytest.approx(200.25)


def test_independent_misses_overlap_up_to_concurrency(spec):
    core = OracleCore(spec)
    for _ in range(4):
        core.issue_load(200.0)
    # 4 misses fit in the demand queue: all overlap.
    assert core.drain() < 210.0


def test_demand_concurrency_throttles_misses(spec):
    core = OracleCore(spec)
    n = 100
    for _ in range(n):
        core.issue_load(200.0)
    total = core.drain()
    # Steady state: one miss retires per 200/4 cycles.
    assert total == pytest.approx(n * 200.0 / 4, rel=0.1)
    assert core.mshr_stall_cycles > 0


def test_window_stall_on_sparse_giant_latency():
    # One miss plus a long tail of compute exceeding the ROB forces a
    # full-window stall.
    spec = CoreSpec(rob_entries=32, issue_width=4, l1_mshrs=8, demand_concurrency=8)
    core = OracleCore(spec)
    core.issue_load(1000.0)
    core.issue_compute(16)
    core.issue_load(1000.0)  # instr distance 17 < 32: no stall yet
    core.issue_compute(64)   # pushes past the window
    core.issue_load(1000.0)
    assert core.window_stall_cycles > 0


def test_prefetches_do_not_trigger_window_stalls(spec):
    core = OracleCore(spec)
    for _ in range(50):
        core.issue_prefetch(200.0)
    assert core.window_stall_cycles == 0.0
    assert core.prefetches == 50


def test_prefetches_bounded_by_mshrs(spec):
    core = OracleCore(spec)
    for _ in range(100):
        core.issue_prefetch(200.0)
    total = core.now
    # 8 MSHRs at 200 cycles each: ~100 * 200/8.
    assert total == pytest.approx(100 * 200 / 8, rel=0.15)


def test_prefetch_stream_faster_than_demand_stream(spec):
    demand = OracleCore(spec)
    for _ in range(100):
        demand.issue_load(200.0)
    demand_time = demand.drain()
    prefetch = OracleCore(spec)
    for _ in range(100):
        prefetch.issue_prefetch(200.0)
    # The asymmetry that makes SW-PF win: 8 MSHRs beat 4 demand slots.
    assert prefetch.now < demand_time


def test_merged_load_waits_for_residual(spec):
    core = OracleCore(spec)
    core.issue_compute(4)
    stall_free = core.issue_merged_load(core.now)  # already complete
    assert stall_free == 0.0
    core.issue_merged_load(core.now + 500.0)
    assert core.drain() >= 500.0


def test_merged_loads_occupy_load_queue(spec):
    core = OracleCore(spec)
    completion = 1000.0
    for _ in range(spec.demand_concurrency + 1):
        core.issue_merged_load(completion)
    # The queue filled: the last merged load waited for the first.
    assert core.mshr_stall_cycles > 0


def test_merged_loads_do_not_hold_mshrs(spec):
    core = OracleCore(spec)
    for _ in range(spec.demand_concurrency - 1):
        core.issue_merged_load(5000.0)
    # MSHRs are free: a prefetch allocates without stall.
    stall = core.issue_prefetch(200.0)
    assert stall == 0.0


def test_stall_fraction_and_ipc(spec):
    core = OracleCore(spec)
    for _ in range(50):
        core.issue_compute(5)
        core.issue_load(300.0)
    core.drain()
    assert 0.0 < core.stall_fraction < 1.0
    assert core.ipc > 0


def test_reset_restores_initial_state(spec):
    core = OracleCore(spec)
    core.issue_compute(10)
    core.issue_load(100.0)
    core.reset()
    assert core.now == 0.0
    assert core.instr_count == 0
    assert core.drain() == 0.0


@pytest.mark.parametrize("seed", range(8))
def test_demand_chunks_match_scalar_issue(seed):
    """Bulk replay of several drained chunks vs the scalar calls: every
    counter, including stall totals accumulated across chunks, is
    bit-identical.  Latencies with long mantissas make float addition
    order-sensitive."""
    import numpy as np

    rng = np.random.default_rng(seed)
    spec = CoreSpec(
        rob_entries=int(rng.choice([4, 8, 16])), issue_width=4,
        l1_mshrs=6, demand_concurrency=int(rng.integers(1, 7)),
    )
    bulk, scalar = CoreModel(spec), OracleCore(spec)
    for _ in range(4):
        latencies = np.where(
            rng.random(200) < 0.4, 5.0, 200.0 + 300.0 * rng.random(200)
        )
        pre_uops = rng.integers(0, 6, 200)
        bulk.issue_demand_chunk(latencies, pre_uops)
        for uops, latency in zip(pre_uops.tolist(), latencies.tolist()):
            scalar.issue_compute(uops)
            scalar.issue_load(latency, is_miss=latency > 16.0)
        bulk.drain()
        scalar.drain()
    for name in ("now", "instr_count", "loads", "misses",
                 "window_stall_cycles", "mshr_stall_cycles"):
        assert getattr(bulk, name) == getattr(scalar, name), name
