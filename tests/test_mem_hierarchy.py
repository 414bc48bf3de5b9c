"""Memory-hierarchy walk tests."""

import dataclasses

import pytest

from embedding_oracle import latency_of_level, load, prefetch, resident_level
from repro.errors import ConfigError
from repro.mem.dram import DRAMModel
from repro.mem.fastcache import FastCache
from repro.mem.hierarchy import HierarchyConfig, build_hierarchy


def test_default_config_matches_table3():
    config = HierarchyConfig()
    assert config.l1_size == 32 * 1024
    assert config.l2_size == 1024 * 1024
    assert config.l3_size == int(35.75 * 1024 * 1024)
    assert config.l1_latency == 5.0  # Table 3's L1D latency


def test_config_requires_increasing_sizes():
    with pytest.raises(ConfigError):
        HierarchyConfig(l1_size=2 * 1024 * 1024)


def test_first_load_goes_to_dram(small_hierarchy):
    result = load(small_hierarchy, 123)
    assert result.level == "dram"
    assert result.was_off_chip
    assert result.latency > small_hierarchy.config.l3_latency


def test_second_load_hits_l1(small_hierarchy):
    load(small_hierarchy, 123)
    result = load(small_hierarchy, 123)
    assert result.level == "l1"
    assert result.latency == small_hierarchy.config.l1_latency


def test_l2_hit_after_l1_eviction(small_hierarchy):
    h = small_hierarchy
    load(h, 0)
    # Thrash L1 (16 lines) without exceeding L2 (128 lines).
    sets = h.l1.num_sets
    for k in range(1, h.l1.ways + 2):
        load(h, 0 + k * sets)
    result = load(h, 0)
    assert result.level == "l2"
    h_stats = h.stats
    assert h_stats.level_hits["l2"] >= 1


def test_fills_propagate_to_all_levels(small_hierarchy):
    load(small_hierarchy, 77)
    assert small_hierarchy.l1.contains(77)
    assert small_hierarchy.l2.contains(77)
    assert small_hierarchy.l3.contains(77)
    assert resident_level(small_hierarchy, 77) == "l1"


def test_prefetch_to_l1_makes_demand_hit(small_hierarchy):
    result = prefetch(small_hierarchy, 55, target_level="l1")
    assert result.prefetch
    assert load(small_hierarchy, 55).level == "l1"


def test_prefetch_to_l2_does_not_fill_l1(small_hierarchy):
    prefetch(small_hierarchy, 55, target_level="l2")
    assert not small_hierarchy.l1.contains(55)
    assert small_hierarchy.l2.contains(55)


def test_prefetch_to_l3_only(small_hierarchy):
    prefetch(small_hierarchy, 55, target_level="l3")
    assert resident_level(small_hierarchy, 55) == "l3"


def test_prefetch_rejects_bad_level(small_hierarchy):
    h = small_hierarchy
    load(h, 1)

    def stats():
        return [dataclasses.asdict(x.stats) for x in (h, h.l1, h.l2, h.l3)]

    before = stats()
    with pytest.raises(ConfigError):
        prefetch(h, 1, target_level="dram")
    assert stats() == before  # a rejected call changes no statistics


def test_stats_track_dram_bytes(small_hierarchy):
    load(small_hierarchy, 1)
    load(small_hierarchy, 2)
    assert small_hierarchy.stats.dram_bytes == 128


def test_avg_load_latency(small_hierarchy):
    load(small_hierarchy, 9)   # dram
    load(small_hierarchy, 9)   # l1
    avg = small_hierarchy.stats.avg_load_latency
    assert small_hierarchy.config.l1_latency < avg


def test_hw_prefetch_candidates_empty_when_disabled():
    config = HierarchyConfig(
        l1_size=1024, l1_ways=2, l2_size=8192, l2_ways=4, l3_size=65536, l3_ways=4
    )
    h = build_hierarchy(config, hw_prefetch=False)
    load(h, 10)
    assert h.hw_prefetch_candidates(10, l1_hit=False) == []


def test_hw_prefetch_candidates_on_miss(small_hierarchy):
    load(small_hierarchy, 10)
    candidates = small_hierarchy.hw_prefetch_candidates(10, l1_hit=False)
    lines = [line for line, _ in candidates]
    assert 11 in lines  # next-line candidate
    targets = {target for _, target in candidates}
    assert targets <= {"l1", "l2"}


def test_hw_candidates_filter_resident_lines(small_hierarchy):
    load(small_hierarchy, 11)  # 11 now in L1
    load(small_hierarchy, 10)
    candidates = small_hierarchy.hw_prefetch_candidates(10, l1_hit=False)
    assert all(line != 11 or target != "l1" for line, target in candidates)


def test_shared_l3_between_two_hierarchies():
    config = HierarchyConfig(
        l1_size=1024, l1_ways=2, l2_size=8192, l2_ways=4, l3_size=65536, l3_ways=4
    )
    l3 = FastCache("l3", config.l3_size, config.l3_ways)
    dram = DRAMModel(config.dram)
    core_a = build_hierarchy(config, shared_l3=l3, shared_dram=dram)
    core_b = build_hierarchy(config, shared_l3=l3, shared_dram=dram)
    load(core_a, 500)
    # Constructive sharing: B misses its private levels but hits shared L3.
    result = load(core_b, 500)
    assert result.level == "l3"


def test_latency_of_level(small_hierarchy):
    config = small_hierarchy.config
    assert latency_of_level(small_hierarchy, "l1") == config.l1_latency
    assert latency_of_level(small_hierarchy, "dram") > config.l3_latency
    with pytest.raises(ConfigError):
        latency_of_level(small_hierarchy, "l9")


def test_flush_keeps_shared_l3(small_hierarchy):
    load(small_hierarchy, 123)
    small_hierarchy.flush()
    assert resident_level(small_hierarchy, 123) == "l3"


def test_hierarchy_stats_merge_commutative():
    from repro.mem.stats import HierarchyStats

    a = HierarchyStats(
        level_hits={"dram": 1, "l1": 3},
        total_latency_cycles=50.0,
        demand_accesses=4,
        prefetch_requests=2,
        dram_bytes=64,
    )
    b = HierarchyStats(
        level_hits={"l2": 5, "l1": 1},
        total_latency_cycles=10.0,
        demand_accesses=6,
        prefetch_requests=0,
        dram_bytes=128,
    )
    ab = a.merge(b)
    ba = b.merge(a)
    assert ab == ba  # dataclass eq: every field, including level_hits
    # Key order is canonicalized, so even iteration order is symmetric.
    assert list(ab.level_hits) == list(ba.level_hits)
    assert ab.level_hits == {"l1": 4, "l2": 5, "dram": 1}
    assert ab.total_latency_cycles == 60.0
    assert ab.demand_accesses == 10
    assert ab.prefetch_requests == 2
    assert ab.dram_bytes == 192


def test_hierarchy_stats_reset():
    from repro.mem.stats import HierarchyStats

    stats = HierarchyStats()
    stats.record("l1", 5.0)
    stats.record("dram", 300.0)
    stats.prefetch_requests = 3
    stats.dram_bytes = 64
    stats.reset()
    assert stats == HierarchyStats()
    assert stats.avg_load_latency == 0.0
