"""Set-associative cache tests."""

import pytest

from repro.errors import ConfigError
from embedding_oracle import Cache


@pytest.fixture
def cache():
    # 64 lines total, 2-way, 32 sets.
    return Cache("l1", 64 * 64, 2)


def test_geometry(cache):
    assert cache.capacity_lines == 64
    assert cache.num_sets == 32
    assert cache.ways == 2


def test_size_must_divide_into_sets():
    with pytest.raises(ConfigError):
        Cache("bad", 64 * 3, 2)  # 3 lines into 2 ways


def test_miss_then_fill_then_hit(cache):
    assert not cache.access(5)
    cache.fill(5)
    assert cache.access(5)
    assert cache.stats.demand_misses == 1
    assert cache.stats.demand_hits == 1


def test_set_conflict_eviction(cache):
    # Lines mapping to the same set: line, line+32, line+64 (32 sets).
    base = 7
    conflicts = [base, base + 32, base + 64]
    for line in conflicts:
        cache.access(line)
        cache.fill(line)
    # 2 ways: the first conflicting line must have been evicted.
    assert not cache.contains(conflicts[0])
    assert cache.contains(conflicts[1])
    assert cache.contains(conflicts[2])
    assert cache.stats.evictions == 1


def test_fill_returns_evicted_line_number(cache):
    cache.fill(7)
    cache.fill(7 + 32)
    evicted = cache.fill(7 + 64)
    assert evicted == 7


def test_contains_has_no_side_effects(cache):
    cache.fill(1)
    cache.fill(1 + 32)
    assert cache.contains(1)
    # contains() must not refresh recency: 1 is still LRU.
    evicted = cache.fill(1 + 64)
    assert evicted == 1


def test_prefetch_accounting(cache):
    cache.fill(9, from_prefetch=True)
    assert cache.stats.prefetch_fills == 1
    assert cache.access(9)  # demand touch makes it useful
    assert cache.stats.prefetch_useful == 1


def test_unused_prefetch_eviction_counted(cache):
    cache.fill(7, from_prefetch=True)
    cache.fill(7 + 32)
    cache.fill(7 + 64)  # evicts the prefetched 7, never used
    assert cache.stats.prefetch_evicted_unused == 1


def test_prefetch_access_does_not_count_as_demand(cache):
    cache.access(3, is_prefetch=True)
    assert cache.stats.demand_accesses == 0


def test_invalidate(cache):
    cache.fill(4)
    assert cache.invalidate(4)
    assert not cache.contains(4)
    assert not cache.invalidate(4)


def test_flush_empties_but_keeps_stats(cache):
    cache.access(1)
    cache.fill(1)
    cache.flush()
    assert not cache.contains(1)
    assert cache.stats.demand_misses == 1


def test_reset_stats_keeps_contents(cache):
    cache.fill(1)
    cache.access(1)
    cache.reset_stats()
    assert cache.stats.demand_hits == 0
    assert cache.contains(1)


def test_occupancy_never_exceeds_capacity(cache):
    for line in range(500):
        cache.access(line)
        cache.fill(line)
    assert cache.occupancy() <= cache.capacity_lines


def test_hit_rate_property(cache):
    for line in range(4):
        cache.access(line)
        cache.fill(line)
    for line in range(4):
        cache.access(line)
    assert cache.stats.hit_rate == pytest.approx(0.5)
    assert cache.stats.miss_rate == pytest.approx(0.5)


def test_line_to_set_round_trip(cache):
    line = 12345
    set_idx = cache.set_index(line)
    tag = cache.tag_of(line)
    assert tag * cache.num_sets + set_idx == line
