"""Differential tests: FastCache vs the oracle's reference Cache(policy="lru").

Every test drives the same operation stream through both implementations
and asserts identical observable behaviour — hit/miss returns, evicted
lines, statistics, occupancy.  The fast engine's correctness claim is
"bit-exact equivalence", so any divergence here is a bug by definition.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from embedding_oracle import Cache
from repro.mem.fastcache import FastCache

SIZE = 64 * 64 * 4  # 64 sets x 4 ways x 64B lines
WAYS = 4


def make_pair(size_bytes: int = SIZE, ways: int = WAYS):
    return (
        Cache("ref", size_bytes, ways, policy="lru", seed=3),
        FastCache("fast", size_bytes, ways),
    )


def assert_same_state(ref: Cache, fast: FastCache) -> None:
    assert dataclasses.asdict(ref.stats) == dataclasses.asdict(fast.stats)
    assert ref.occupancy() == fast.occupancy()


def replay_demand(ref: Cache, fast: FastCache, lines) -> None:
    """The hierarchy's per-level demand sequence: access, fill on miss."""
    for line in lines:
        line = int(line)
        ref_hit = ref.access(line)
        fast_hit = fast.access(line)
        assert ref_hit == fast_hit
        if not ref_hit:
            assert ref.fill(line) == fast.fill(line)


@pytest.mark.parametrize("seed", [0, 1, 17, 99])
def test_random_demand_stream_identical(seed):
    rng = np.random.default_rng(seed)
    ref, fast = make_pair()
    replay_demand(ref, fast, rng.integers(0, 4096, size=3000))
    assert_same_state(ref, fast)


@pytest.mark.parametrize("seed", [2, 5, 23])
def test_zipf_demand_stream_identical(seed):
    rng = np.random.default_rng(seed)
    lines = rng.zipf(1.3, size=4000) % 8192
    ref, fast = make_pair()
    replay_demand(ref, fast, lines)
    assert_same_state(ref, fast)
    for line in map(int, lines[:200]):
        assert ref.contains(line) == fast.contains(line)


@pytest.mark.parametrize("seed", [4, 11])
def test_mixed_prefetch_demand_stream_identical(seed):
    """Interleaved prefetch fills, prefetch lookups, demand, invalidate."""
    rng = np.random.default_rng(seed)
    ref, fast = make_pair()
    for _ in range(4000):
        line = int(rng.integers(0, 4096))
        op = rng.random()
        if op < 0.15:
            assert ref.fill(line, from_prefetch=True) == fast.fill(
                line, from_prefetch=True
            )
        elif op < 0.25:
            assert ref.access(line, is_prefetch=True) == fast.access(
                line, is_prefetch=True
            )
        elif op < 0.30:
            assert ref.invalidate(line) == fast.invalidate(line)
        else:
            hit = ref.access(line)
            assert hit == fast.access(line)
            if not hit:
                assert ref.fill(line) == fast.fill(line)
    assert_same_state(ref, fast)


def test_flush_matches_reference():
    rng = np.random.default_rng(8)
    ref, fast = make_pair()
    replay_demand(ref, fast, rng.integers(0, 4096, size=1500))
    ref.flush()
    fast.flush()
    assert ref.occupancy() == fast.occupancy() == 0
    replay_demand(ref, fast, rng.integers(0, 4096, size=1500))
    assert_same_state(ref, fast)


def test_demand_wave_matches_scalar_sequence():
    """A conflict-free demand_wave equals scalar access+fill in order."""
    rng = np.random.default_rng(21)
    ref, fast = make_pair()
    for _ in range(60):
        # Distinct sets within each wave (the documented precondition).
        sets = rng.choice(fast.num_sets, size=40, replace=False)
        tags = rng.integers(0, 32, size=40)
        wave = (tags * fast.num_sets + sets).astype(np.int64)
        ref_hits = []
        for line in map(int, wave):
            hit = ref.access(line)
            ref_hits.append(hit)
            if not hit:
                ref.fill(line)
        fast_hits = fast.demand_wave(wave)
        assert fast_hits.tolist() == ref_hits
    assert_same_state(ref, fast)


def test_lookup_and_fill_batch_match_scalar_sequence():
    rng = np.random.default_rng(34)
    ref, fast = make_pair()
    for _ in range(40):
        sets = rng.choice(fast.num_sets, size=32, replace=False)
        tags = rng.integers(0, 16, size=32)
        wave = (tags * fast.num_sets + sets).astype(np.int64)
        as_prefetch = bool(rng.random() < 0.4)
        ref_hits = [ref.access(int(l), is_prefetch=as_prefetch) for l in wave]
        assert fast.lookup_batch(wave, is_prefetch=as_prefetch).tolist() == ref_hits
        for line, hit in zip(map(int, wave), ref_hits):
            if not hit:
                ref.fill(line, from_prefetch=as_prefetch)
        misses = wave[~np.array(ref_hits)]
        fast.fill_batch(misses, from_prefetch=as_prefetch)
    assert_same_state(ref, fast)


def test_cache_flush_reseeds_policies():
    """Regression: flush() must rebuild policies with the original seeds.

    A flushed Random-policy cache must evict exactly like a freshly
    constructed one when replaying the same fill sequence.
    """
    rng = np.random.default_rng(55)
    lines = rng.integers(0, 4096, size=2000)
    flushed = Cache("c", SIZE, WAYS, policy="random", seed=7)
    for line in map(int, lines):
        flushed.fill(line)
    flushed.flush()
    fresh = Cache("c", SIZE, WAYS, policy="random", seed=7)
    evictions = [
        (flushed.fill(int(l)), fresh.fill(int(l))) for l in lines
    ]
    assert all(a == b for a, b in evictions)
