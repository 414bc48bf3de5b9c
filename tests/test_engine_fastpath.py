"""The package's memory engine against the oracle: bit-exact.

Four levels of checking, from unit to end-to-end:

1. wave partitioning invariants (the algorithm the vectorized walk rests on),
2. ``MemoryHierarchy.access_lines`` vs a sequential ``load_timing`` loop,
   and vs the oracle's reference caches,
3. ``run_embedding_trace`` of the package (``"fast"``) and of
   ``tests/embedding_oracle.py`` (``"reference"``), which diffs the bulk
   walk and the fused kernel against the per-event loop,
4. full experiment reports, plain and inside ``oracle_engine()``.
"""

from __future__ import annotations

import dataclasses
import functools
import json

import numpy as np
import pytest

import embedding_oracle as oracle
from repro.config import SimConfig
from repro.cpu.core import CoreSpec
from repro.core import schemes
from repro.cpu.platform import get_platform
from repro.engine.embedding_exec import PrefetchPlan, run_embedding_trace
from repro.engine.multicore import run_embedding_multicore
from repro.errors import ConfigError
from repro.experiments.base import report_to_dict
from repro.experiments.registry import run_experiment
from repro.experiments.workloads import build_workload
from repro.mem.hierarchy import HierarchyConfig, _wave_partition, build_hierarchy
from repro.obs.hooks import session
from repro.trace.dataset import EmbeddingTrace, TableBatch
from repro.trace.stream import AddressMap


def _streams():
    rng = np.random.default_rng(42)
    zipf = (rng.zipf(1.3, 4000) % 50_000).astype(np.int64)
    uniform = rng.integers(0, 200_000, size=4000).astype(np.int64)
    # Pathologically hot: one row repeated (exercises the scalar fallback).
    hot = np.tile(np.arange(8, dtype=np.int64), 500)
    return {"zipf": zipf, "uniform": uniform, "hot": hot}


# -- 1. wave partition ------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 7, 19])
def test_wave_partition_invariants(seed):
    rng = np.random.default_rng(seed)
    sets = rng.integers(0, 37, size=rng.integers(1, 500)).astype(np.int64)
    order, bounds = _wave_partition(sets)
    assert sorted(order.tolist()) == list(range(sets.size))
    assert bounds[-1] == sets.size
    start = 0
    for end in bounds.tolist():
        wave = sets[order[start:end]]
        assert np.unique(wave).size == wave.size  # conflict-free
        start = end
    # Per set value, indices appear in original (ascending) order across
    # waves — the property that makes wave replay order-equivalent.
    per_set = {}
    for idx in order.tolist():
        per_set.setdefault(int(sets[idx]), []).append(idx)
    for idxs in per_set.values():
        assert idxs == sorted(idxs)


# -- 2. hierarchy walk ------------------------------------------------------


@pytest.mark.parametrize("name", ["zipf", "uniform", "hot"])
def test_access_lines_matches_sequential_loads(name):
    lines = _streams()[name]
    spec = get_platform("csl")
    batched = build_hierarchy(spec.hierarchy, hw_prefetch=False)
    serial = build_hierarchy(spec.hierarchy, hw_prefetch=False)
    got = batched.access_lines(lines)
    want = np.array([serial.load_timing(int(l))[0] for l in lines])
    assert np.array_equal(got, want)
    for fast_level, ref_level in (
        (batched.l1, serial.l1), (batched.l2, serial.l2), (batched.l3, serial.l3)
    ):
        assert dataclasses.asdict(fast_level.stats) == dataclasses.asdict(
            ref_level.stats
        )
    assert batched.stats.level_hits == serial.stats.level_hits
    assert batched.stats.total_latency_cycles == serial.stats.total_latency_cycles
    assert batched.dram.row_hits == serial.dram.row_hits


@pytest.mark.parametrize("name", ["zipf", "uniform"])
def test_fast_engine_matches_reference_walk(name):
    lines = _streams()[name]
    spec = get_platform("csl")
    fast = build_hierarchy(spec.hierarchy, hw_prefetch=False)
    ref = oracle.build_hierarchy(spec.hierarchy, hw_prefetch=False)
    got = fast.access_lines(lines)
    want = np.array([oracle.load(ref, int(l)).latency for l in lines])
    assert np.array_equal(got, want)
    assert fast.stats.level_hits == ref.stats.level_hits


# -- 3. embedding engine ---------------------------------------------------
#
# ``run_embedding_trace`` has two paths.  Runs with no prefetching of any
# kind take the vectorized bulk walk; every other run takes the fused
# kernel.  The oracle's ``run_embedding_trace`` runs the per-event loop
# over its reference caches and eager core, so running the same inputs
# through both diffs each path against the oracle.  Each comparison covers every ``EmbeddingRunResult`` field, every
# per-level ``CacheStats``, ``HierarchyStats`` (including the insertion
# order of ``level_hits``), the DRAM counters and open rows, the hardware
# prefetchers' issue counts and stream state, and which level holds every
# line the run could have touched.


ENGINES = ("fast", "reference")
BUILD = {"fast": build_hierarchy, "reference": oracle.build_hierarchy}
RUN = {"fast": run_embedding_trace, "reference": oracle.run_embedding_trace}

PLANS = {
    "none": None,
    "l1": PrefetchPlan(4, 8, "l1"),
    "l2": PrefetchPlan(2, 3, "l2"),
    "l3": PrefetchPlan(6, 5, "l3"),
    # More lines than a row has: the engine clips the plan to the row.
    "l1clip": PrefetchPlan(3, 64, "l1"),
}

#: Two small geometries whose caches thrash on the test traces, so
#: evictions (of used and never-used prefetched lines) happen at every level.
SMALL_HIERARCHIES = (
    HierarchyConfig(
        l1_size=1024, l1_ways=2, l2_size=8192, l2_ways=4,
        l3_size=65536, l3_ways=4,
    ),
    HierarchyConfig(
        l1_size=4096, l1_ways=4, l2_size=32768, l2_ways=8,
        l3_size=196608, l3_ways=12,
    ),
)


@functools.lru_cache(maxsize=None)
def _workload(dataset: str, num_batches: int = 2):
    return build_workload(
        "rm2_1", dataset, scale=0.01, batch_size=8, num_batches=num_batches,
        config=SimConfig(seed=99),
    )


def _touched_lines(trace, amap):
    """The lines of every looked-up row and four more on each side: every
    demand, software-prefetch, next-line and streamer line a run touches
    (far stride candidates show up in the occupancy counts)."""
    row_lines = amap.row_lines
    lines = set()
    for _, t, tb in trace.iter_table_batches():
        for first in amap.batch_first_lines(t, tb).tolist():
            lines.update(range(max(0, first - 4), first + row_lines + 4))
    return sorted(lines)


def _state(hierarchy, lines, result):
    """Everything observable about a hierarchy after a run."""
    h = hierarchy
    state = {
        "hierarchy": dataclasses.asdict(h.stats),
        "dram": (
            h.dram.accesses, h.dram.row_hits, h.dram.bytes_transferred,
            list(h.dram._open_rows),
        ),
        "resident": [oracle.resident_level(h, line) for line in lines],
        "occupancy": [c.occupancy() for c in (h.l1, h.l2, h.l3)],
    }
    for cache in (h.l1, h.l2, h.l3):
        state[cache.name] = dataclasses.asdict(cache.stats)
    if h.hw_prefetch_enabled:
        streamer, strider = h.l2_prefetcher.prefetchers
        state["prefetchers"] = (
            h.l1_prefetcher.issued, streamer.issued, strider.issued,
            dict(streamer._last_in_page), dict(strider._streams),
        )
    state["result"] = dataclasses.asdict(result)
    return state


def _assert_same(fast, ref):
    assert fast.keys() == ref.keys()
    for key in fast:
        assert fast[key] == ref[key], key


@pytest.mark.parametrize(
    "loop_order", ["table_major", "sample_major"], ids=["table", "sample"]
)
@pytest.mark.parametrize("plan", sorted(PLANS))
@pytest.mark.parametrize("hw", [True, False], ids=["hw", "nohw"])
@pytest.mark.parametrize("dataset", ["low", "high"])
def test_embedding_trace_identical_across_engines(dataset, hw, plan, loop_order):
    wl = _workload(dataset)
    spec = get_platform("csl")
    lines = _touched_lines(wl.trace, wl.amap)
    states = {}
    for engine in ENGINES:
        hierarchy = BUILD[engine](spec.hierarchy, hw_prefetch=hw)
        result = RUN[engine](
            wl.trace, wl.amap, spec.core, hierarchy, plan=PLANS[plan],
            loop_order=loop_order,
        )
        states[engine] = _state(hierarchy, lines, result)
        states[engine]["level_order"] = list(hierarchy.stats.level_hits)
    if not hw and PLANS[plan] is None:
        # The bulk walk counts levels in walk order, not first-use order.
        for state in states.values():
            del state["level_order"]
    _assert_same(states["fast"], states["reference"])


@pytest.mark.parametrize("plan", ["none", "l1"])
@pytest.mark.parametrize("hw", [True, False], ids=["hw", "nohw"])
@pytest.mark.parametrize("cores", [1, 24])
def test_multicore_identical_across_engines(cores, hw, plan):
    """Shared L3 and DRAM across detailed cores, bandwidth fixed point."""
    wl = _workload("low", num_batches=4)
    platform = get_platform("csl")

    def run():
        return dataclasses.asdict(
            run_embedding_multicore(
                wl.trace, wl.amap, platform, cores, plan=PLANS[plan],
                hw_prefetch=hw,
            )
        )

    fast = run()
    with oracle.oracle_engine():
        reference = run()
    assert fast == reference


@pytest.mark.parametrize("plan", ["none", "l2"])
def test_hooks_on_exports_identical(plan):
    """An observed fused run exports the generic loop's bytes, and its
    results match the unobserved run."""
    wl = _workload("low")
    spec = get_platform("csl")
    exports = {}
    for engine in ENGINES:
        hierarchy = BUILD[engine](spec.hierarchy)
        with session() as obs:
            observed = RUN[engine](
                wl.trace, wl.amap, spec.core, hierarchy, plan=PLANS[plan]
            )
        exports[engine] = (
            json.dumps(obs.tracer.chrome_dict(), sort_keys=True),
            json.dumps(obs.metrics.snapshot(), sort_keys=True),
        )
        quiet = RUN[engine](
            wl.trace, wl.amap, spec.core, BUILD[engine](spec.hierarchy),
            plan=PLANS[plan],
        )
        assert dataclasses.asdict(observed) == dataclasses.asdict(quiet)
    assert exports["fast"] == exports["reference"]


def test_streamer_table_reset_identical():
    """Enough distinct pages miss L1 to overflow the streamer's table."""
    rng = np.random.default_rng(5)
    rows = [40_000, 40_000]
    batch = [
        TableBatch(np.array([0, 4000], dtype=np.int64),
                   rng.integers(0, r, 4000).astype(np.int64))
        for r in rows
    ]
    trace = EmbeddingTrace(rows, [batch])
    amap = AddressMap(rows, 128)
    spec = get_platform("csl")
    lines = _touched_lines(trace, amap)
    states = {}
    for engine in ENGINES:
        hierarchy = BUILD[engine](spec.hierarchy)
        result = RUN[engine](trace, amap, spec.core, hierarchy)
        states[engine] = _state(hierarchy, lines, result)
        streamer = hierarchy.l2_prefetcher.prefetchers[0]
        pages = {line // streamer.LINES_PER_PAGE for line in lines}
        assert len(pages) > streamer.TABLE_ENTRIES
        assert len(streamer._last_in_page) <= streamer.TABLE_ENTRIES
    _assert_same(states["fast"], states["reference"])


def test_stride_repeating_streamer_identical():
    """Stride candidates that repeat streamer candidates, some of them
    already in L2.  One-line rows walked two lines apart, down and up a
    page, give the streamer ``line ± 1, line ± 2`` and the confident
    stride detector ``line ± 2, line ± 4``.  Every other page's lines are
    warmed into L2 and pushed out of L1 first, so the repeated line is
    sometimes filtered by residency and sometimes fetched.  The lines the
    first two pages repeat first are left in L1 but not L2, so a repeat
    fetched twice would hit L1 twice."""
    rows = [8192]
    indices = []
    for p in range(24):
        block = list(range(64 * p + 1, 64 * p + 63, 2))
        indices += block if p % 3 else block[::-1]
    indices = np.array(indices, dtype=np.int64)
    trace = EmbeddingTrace(
        rows, [[TableBatch(np.array([0, indices.size], dtype=np.int64), indices)]]
    )
    amap = AddressMap(rows, 16)
    first = amap.table_bases[0] // 64
    warm = first + indices[(indices // 64) % 2 == 0]
    # Twice L1's capacity of far lines, each L1 set a multiple of its ways.
    flush_l1 = first + 16384 + np.arange(1024, dtype=np.int64)
    # Page 0 runs down from row 61, so its stride detector first fires at
    # row 57 and repeats row 55; page 1 runs up from row 65 and repeats
    # row 71.  Each such line is touched between 16 fills of its L2 set:
    # L1 hits keep it there, while L2 evicts it.
    l1_only = []
    for row in (55, 71):
        for k in range(17, 33):
            l1_only += [first + row, first + row + 1024 * k]
        l1_only.append(first + row)
    l1_only = np.array(l1_only, dtype=np.int64)
    spec = get_platform("csl")
    lines = _touched_lines(trace, amap)
    states = {}
    repeats = {}
    for engine in ENGINES:
        hierarchy = BUILD[engine](spec.hierarchy)
        for warm_lines in (warm, flush_l1, l1_only):
            hierarchy.access_lines(warm_lines)
        if engine == "reference":
            repeats = _record_repeats(hierarchy)
        result = RUN[engine](trace, amap, spec.core, hierarchy)
        states[engine] = _state(hierarchy, lines, result)
    assert repeats["in_l2"] and repeats["l1_only"] and repeats["absent"]
    _assert_same(states["fast"], states["reference"])


def _record_repeats(hierarchy):
    """Count, on a reference hierarchy, the stride candidates that repeat a
    streamer candidate, by where the line was when the candidates were
    filtered: in L2, in L1 only, or in neither."""
    streamer, strider = hierarchy.l2_prefetcher.prefetchers
    seen = {"in_l2": 0, "l1_only": 0, "absent": 0}
    proposed = {}

    def wrap(prefetcher, key):
        observe = prefetcher.observe

        def recording(line, hit):
            proposed[key] = observe(line, hit)
            return proposed[key]

        prefetcher.observe = recording

    wrap(streamer, "streamer")
    wrap(strider, "stride")
    candidates = hierarchy.hw_prefetch_candidates

    def recording_candidates(line, l1_hit):
        proposed.clear()
        out = candidates(line, l1_hit)
        for c in set(proposed.get("streamer", ())) & set(proposed.get("stride", ())):
            if hierarchy.l2.contains(c):
                seen["in_l2"] += 1
            else:
                seen["l1_only" if hierarchy.l1.contains(c) else "absent"] += 1
        return out

    hierarchy.hw_prefetch_candidates = recording_candidates
    return seen


def _random_trace(rng):
    num_tables = int(rng.integers(1, 4))
    rows = [int(rng.integers(4, 400)) for _ in range(num_tables)]
    batch_size = int(rng.integers(1, 6))
    batches = []
    for _ in range(int(rng.integers(1, 4))):
        batch = []
        for r in rows:
            pooling = rng.integers(0, 10, size=batch_size)
            offsets = np.concatenate(([0], np.cumsum(pooling))).astype(np.int64)
            n = int(offsets[-1])
            if rng.random() < 0.5:
                indices = (rng.zipf(1.4, n) - 1) % r
            else:
                indices = rng.integers(0, r, n)
            batch.append(TableBatch(offsets, indices.astype(np.int64)))
        batches.append(batch)
    # 24-float rows straddle cache lines; base 0 lets stride candidates
    # go negative.
    dim = int(rng.choice([8, 16, 24, 64, 128]))
    base = 0 if rng.random() < 0.5 else 4096 * int(rng.integers(1, 64))
    return EmbeddingTrace(rows, batches), AddressMap(rows, dim, base_address=base)


def _random_plan(rng):
    if rng.random() < 0.3:
        return None
    return PrefetchPlan(
        int(rng.integers(1, 7)), int(rng.integers(1, 12)),
        str(rng.choice(["l1", "l2", "l3"])),
    )


def _fuzz_case(
    rng, robs, widths, max_mshrs, utilizations, geometries=SMALL_HIERARCHIES
):
    """One random case: a small trace, core resources drawn from ``robs``,
    ``widths`` and ``max_mshrs``, one of ``geometries``, a DRAM utilization
    drawn uniformly from the ``utilizations`` interval, and two consecutive
    calls per hierarchy through the package and through the oracle."""
    trace, amap = _random_trace(rng)
    mshrs = int(rng.integers(1, max_mshrs + 1))
    core = CoreSpec(
        rob_entries=int(rng.choice(robs)),
        issue_width=int(rng.choice(widths)),
        l1_mshrs=mshrs,
        demand_concurrency=int(rng.integers(1, mshrs + 1)),
    )
    config = geometries[int(rng.integers(len(geometries)))]
    hw = bool(rng.random() < 0.7)
    utilization = float(rng.uniform(*utilizations))
    calls = [
        (_random_plan(rng), str(rng.choice(["table_major", "sample_major"])),
         None if first else sorted(rng.choice(
             trace.num_batches, int(rng.integers(1, trace.num_batches + 1)),
             replace=False,
         ).tolist()))
        for first in (True, False)
    ]
    lines = _touched_lines(trace, amap)
    walk = np.array(lines, dtype=np.int64)[
        rng.integers(0, len(lines), 600 if rng.random() < 0.5 else 0)
    ]
    states = {}
    for engine in ENGINES:
        hierarchy = BUILD[engine](config, hw_prefetch=hw)
        hierarchy.dram.set_utilization(utilization)
        states[engine] = []
        for k, (plan, loop_order, batches) in enumerate(calls):
            if k:
                hierarchy.access_lines(walk)
            result = RUN[engine](
                trace, amap, core, hierarchy, plan=plan,
                batch_indices=batches, loop_order=loop_order,
            )
            states[engine].append(_state(hierarchy, lines, result))
    for fast, ref in zip(states["fast"], states["reference"]):
        _assert_same(fast, ref)


@pytest.mark.parametrize("seed", range(30))
def test_fused_kernel_fuzz(seed):
    """Random small traces, core resources, plans and geometries; two
    consecutive calls per hierarchy, so cache, prefetcher and DRAM state
    carries from one call into the next.  Half the seeds put a batched
    demand walk between the calls: the fast caches then hand state that
    includes prefetched lines from their scalar form to their array form
    and back."""
    _fuzz_case(
        np.random.default_rng([seed, 14]), robs=[8, 32, 224],
        widths=[1, 3, 4], max_mshrs=12, utilizations=(0.0, 0.9),
    )


@pytest.mark.parametrize("rob", [4, 8])
@pytest.mark.parametrize("seed", range(12))
def test_fused_kernel_fuzz_ties(seed, rob):
    """Integer latencies (DRAM idle) and one issue slot per cycle: merged
    loads, demand misses and software prefetches share completion times,
    and a tiny window leaves completed entries at its head."""
    _fuzz_case(
        np.random.default_rng([seed, rob, 16]), robs=[rob], widths=[1],
        max_mshrs=12, utilizations=(0.0, 0.0),
    )


#: Tiny L1/L2 over a 1 MiB L3: a second call's L3 hits are short misses
#: that move the clock forward before a long DRAM miss issues.
WARM_L3_HIERARCHY = HierarchyConfig(
    l1_size=1024, l1_ways=2, l2_size=2048, l2_ways=2,
    l3_size=1 << 20, l3_ways=16,
)


@pytest.mark.parametrize("seed", range(256))
def test_fused_kernel_fuzz_rounding(seed):
    """One fill buffer, tiny windows, issue widths 5 and 6 and a loaded
    DRAM, so latencies are long and carry many mantissa bits.  A
    full-window stall's ``now + (comp - now)`` then sometimes rounds just
    below ``comp`` (seeds 103 and 204 do), and the next miss must still
    find the fill buffer free."""
    _fuzz_case(
        np.random.default_rng([seed, 17]), robs=range(1, 9), widths=[5, 6],
        max_mshrs=1, utilizations=(0.5, 0.97),
        geometries=(WARM_L3_HIERARCHY,),
    )


# -- library callers --------------------------------------------------------


def test_library_callers_get_the_package_engine(monkeypatch):
    """Plain library code, with no experiment runner around it, builds
    ``FastCache`` levels and runs the bulk and fused walks: there is no
    process default to forget to set."""
    from repro.core.schemes import evaluate_scheme
    from repro.engine import embedding_exec
    from repro.mem.fastcache import FastCache

    hierarchy = build_hierarchy(HierarchyConfig())
    assert all(
        type(level) is FastCache for level in (hierarchy.l1, hierarchy.l2, hierarchy.l3)
    )
    walks = []
    for name in ("_bulk_walk", "_fused_walk"):
        walk = getattr(embedding_exec, name)
        monkeypatch.setattr(
            embedding_exec, name,
            lambda *args, _walk=walk, _name=name: walks.append(_name) or _walk(*args),
        )
    wl = _workload("low")
    platform = get_platform("csl")
    evaluate_scheme("baseline", wl.model, wl.trace, wl.amap, platform)
    evaluate_scheme("sw_pf", wl.model, wl.trace, wl.amap, platform)
    run_embedding_trace(
        wl.trace, wl.amap, platform.core,
        build_hierarchy(platform.hierarchy, hw_prefetch=False),
    )
    assert walks == ["_fused_walk", "_fused_walk", "_bulk_walk"]


def test_package_walk_rejects_oracle_caches():
    wl = _workload("low")
    spec = get_platform("csl")
    with pytest.raises(ConfigError, match="FastCache"):
        run_embedding_trace(
            wl.trace, wl.amap, spec.core, oracle.build_hierarchy(spec.hierarchy)
        )


# -- 4. experiment reports -------------------------------------------------


@pytest.mark.parametrize(
    "exp_id, overrides",
    [
        ("fig4", {"scale": 0.01, "num_batches": 1}),
        (
            "fig12",
            {"scale": 0.01, "num_batches": 1, "models": ("rm2_1",),
             "core_counts": (1,)},
        ),
    ],
)
def test_reports_identical_across_engines(exp_id, overrides):
    fast = run_experiment(exp_id, config=SimConfig(), **overrides)
    with oracle.oracle_engine():
        assert schemes.run_embedding_trace is oracle.run_embedding_trace
        ref = run_experiment(exp_id, config=SimConfig(), **overrides)
    assert report_to_dict(fast) == report_to_dict(ref)
