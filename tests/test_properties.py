"""Property-based tests (hypothesis) on the core data structures."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.reuse import ReuseDistanceCounter, reuse_distances
from embedding_oracle import Cache, LRUPolicy, OracleCore
from repro.cpu.core import CoreSpec
from repro.mem.fastcache import FastCache
from repro.mem.hierarchy import HierarchyConfig, _demand_walk, build_hierarchy
from repro.model.embedding import EmbeddingTable, embedding_bag
from repro.trace.dataset import TableBatch
from repro.units import lines_for_bytes

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

keys = st.integers(min_value=0, max_value=30)
streams = st.lists(keys, min_size=0, max_size=200)


def naive_stack_distances(stream):
    distances, cold = [], 0
    last_seen = {}
    for t, key in enumerate(stream):
        if key not in last_seen:
            cold += 1
        else:
            distances.append(len(set(stream[last_seen[key] + 1 : t])))
        last_seen[key] = t
    return distances, cold


@SETTINGS
@given(streams)
def test_reuse_distance_matches_naive(stream):
    """Olken/Fenwick stack distances equal the quadratic reference."""
    fast = reuse_distances(stream)
    slow, cold = naive_stack_distances(stream)
    assert list(fast.distances) == slow
    assert fast.cold_accesses == cold


@SETTINGS
@given(streams)
def test_reuse_hit_rate_monotone_in_capacity(stream):
    result = reuse_distances(stream)
    if result.total_accesses == 0:
        return
    rates = [result.hit_rate_at_capacity(c) for c in (1, 2, 4, 8, 16, 64)]
    assert all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))


@SETTINGS
@given(streams)
def test_fully_associative_lru_cache_agrees_with_stack_distance(stream):
    """The simulator's LRU set and the analytic model predict identical hits.

    A fully-associative LRU cache of capacity C hits exactly the accesses
    whose stack distance is < C — the equivalence Fig 6's model rests on.
    """
    capacity = 4
    lru = LRUPolicy(capacity)
    simulated_hits = 0
    for key in stream:
        if lru.lookup(key):
            simulated_hits += 1
        else:
            lru.insert(key)
    result = reuse_distances(stream)
    predicted = int(np.count_nonzero(result.distances < capacity))
    assert simulated_hits == predicted


# -- Mattson's inclusion property ---------------------------------------------
#
# A demand access to a set-associative LRU level hits iff its stack
# distance within its set, over the level's own access stream, is below
# the level's ways.  The distances come from the exact Olken counter of
# ``analysis/reuse.py``, which shares no code with the caches.

line_streams = st.lists(st.integers(min_value=0, max_value=160), min_size=1, max_size=300)


def mattson_hits(lines, num_sets, ways):
    """Predicted hit of each access of ``lines`` to one LRU level."""
    counters = {}
    hits = []
    for line in lines:
        s = line % num_sets
        if s not in counters:
            counters[s] = ReuseDistanceCounter(max(len(lines), 1))
        distance = counters[s].access(line)
        hits.append(0 <= distance < ways)
    return hits


@SETTINGS
@given(line_streams, st.integers(1, 8), st.integers(1, 6))
def test_lru_level_hits_follow_stack_distance(lines, num_sets, ways):
    """One ``FastCache`` level, through its scalar calls and through the
    batched demand walk."""
    expected = mattson_hits(lines, num_sets, ways)
    scalar = FastCache("l1", 64 * num_sets * ways, ways)
    got = []
    for line in lines:
        hit = scalar.access(line)
        if not hit:
            scalar.fill(line)
        got.append(hit)
    assert got == expected
    batched = FastCache("l1", 64 * num_sets * ways, ways)
    walked = _demand_walk(batched, np.array(lines, dtype=np.int64))
    assert walked.tolist() == expected


@st.composite
def chains(draw):
    """L1 -> L2 -> L3 geometries with strictly growing capacities."""
    levels = [(draw(st.integers(1, 6)), draw(st.integers(1, 4)))]
    for _ in range(2):
        sets, ways = levels[-1]
        more_sets, more_ways = draw(st.integers(0, 6)), draw(st.integers(0, 4))
        if more_sets + more_ways == 0:
            more_ways = 1
        levels.append((sets + more_sets, ways + more_ways))
    return levels


@SETTINGS
@given(line_streams, chains())
def test_hierarchy_chain_hits_follow_stack_distance(lines, levels):
    """The L1 -> L2 -> L3 chain without prefetch: each level's stream is
    the previous level's misses, and each level's hits are Mattson's.
    Without prefetch every fill is the fill-on-miss of a demand access
    to that level, so the inclusion rule holds at every level."""
    (s1, w1), (s2, w2), (s3, w3) = levels
    config = HierarchyConfig(
        l1_size=64 * s1 * w1, l1_ways=w1, l2_size=64 * s2 * w2, l2_ways=w2,
        l3_size=64 * s3 * w3, l3_ways=w3,
    )
    expected = []
    stream = list(lines)
    for sets, ways in levels:
        hits = mattson_hits(stream, sets, ways)
        expected.append(hits)
        stream = [line for line, hit in zip(stream, hits) if not hit]
    served = {
        config.l1_latency: "l1", config.l2_latency: "l2", config.l3_latency: "l3"
    }
    scalar = build_hierarchy(config, hw_prefetch=False)
    scalar_levels = [scalar.load_timing(line)[1] for line in lines]
    batched = build_hierarchy(config, hw_prefetch=False)
    batched.MIN_WAVE = 0  # always the wave walk, however small the waves
    batch_levels = [
        served.get(latency, "dram")
        for latency in batched.access_lines(np.array(lines, dtype=np.int64)).tolist()
    ]
    predicted = []
    for _ in lines:
        level = "dram"
        for name, hits in zip(("l1", "l2", "l3"), expected):
            if hits.pop(0):
                level = name
                break
        predicted.append(level)
    assert scalar_levels == predicted
    assert batch_levels == predicted


@SETTINGS
@given(st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=300))
def test_cache_occupancy_invariant(lines):
    cache = Cache("t", 64 * 32, 4)  # 32 lines, 4-way
    for line in lines:
        if not cache.access(line):
            cache.fill(line)
    assert cache.occupancy() <= cache.capacity_lines
    stats = cache.stats
    assert stats.demand_hits + stats.demand_misses == len(lines)


@SETTINGS
@given(st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=300))
def test_cache_second_access_is_always_hit_within_capacity(lines):
    """Immediately re-accessing a just-filled line must hit."""
    cache = Cache("t", 64 * 32, 4)
    for line in lines:
        if not cache.access(line):
            cache.fill(line)
        assert cache.access(line)  # the line was just touched/filled


@SETTINGS
@given(
    st.lists(
        st.tuples(st.floats(min_value=1.0, max_value=500.0), st.booleans()),
        min_size=1,
        max_size=100,
    )
)
def test_core_time_is_monotone_and_bounded(events):
    """Core time only advances; total >= issue-bound and >= any single miss."""
    spec = CoreSpec(rob_entries=64, issue_width=4, l1_mshrs=8, demand_concurrency=4)
    core = OracleCore(spec)
    previous = 0.0
    for latency, is_miss in events:
        core.issue_compute(3)
        core.issue_load(latency, is_miss=is_miss)
        assert core.now >= previous
        previous = core.now
    total = core.drain()
    issue_bound = core.instr_count / spec.issue_width
    assert total >= issue_bound - 1e-9
    miss_latencies = [lat for lat, miss in events if miss and lat > 16.0]
    if miss_latencies:
        assert total >= max(miss_latencies)


@SETTINGS
@given(
    st.lists(st.floats(min_value=20.0, max_value=400.0), min_size=1, max_size=60)
)
def test_prefetch_stream_never_slower_than_demand_stream(latencies):
    spec = CoreSpec(rob_entries=64, issue_width=4, l1_mshrs=8, demand_concurrency=4)
    demand = OracleCore(spec)
    for latency in latencies:
        demand.issue_load(latency)
    demand_total = demand.drain()
    prefetch = OracleCore(spec)
    for latency in latencies:
        prefetch.issue_prefetch(latency)
    # Prefetches never retire later than equivalent demand loads would.
    assert prefetch.now <= demand_total + 1e-6


@SETTINGS
@given(
    st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=10),
    st.integers(min_value=0, max_value=10**6),
)
def test_embedding_bag_linearity(pooling, seed):
    """bag(sum) over a batch equals per-sample manual accumulation."""
    rng = np.random.default_rng(seed)
    table = EmbeddingTable(rows=40, dim=8, rng=rng)
    offsets = np.concatenate([[0], np.cumsum(pooling)]).astype(np.int64)
    indices = rng.integers(0, 40, size=int(offsets[-1]))
    out = embedding_bag(table, indices, offsets)
    tb = TableBatch(offsets=offsets, indices=indices)
    for k in range(tb.batch_size):
        expected = table.weight[tb.sample_indices(k)].sum(axis=0)
        assert np.allclose(out[k], expected, atol=1e-4)


@SETTINGS
@given(st.integers(min_value=0, max_value=10**6))
def test_lines_for_bytes_covers_range(n_bytes):
    lines = lines_for_bytes(n_bytes)
    assert lines * 64 >= n_bytes
    assert (lines - 1) * 64 < n_bytes or lines == 0
