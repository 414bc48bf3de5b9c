"""Stats containers and address-math tests."""

import pytest

from repro.mem.cacheline import (
    PAGE_BYTES,
    iter_lines,
    line_base,
    line_of,
    lines_of_range,
    page_of_line,
)
from repro.mem.stats import CacheStats, HierarchyStats


class TestCacheline:
    def test_line_of_basic(self):
        assert line_of(0) == 0
        assert line_of(63) == 0
        assert line_of(64) == 1

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            line_of(-1)

    def test_line_base_inverts_line_of(self):
        assert line_of(line_base(77)) == 77

    def test_lines_of_range_spanning(self):
        # 512 bytes starting at 32 spans lines 0..8.
        assert lines_of_range(32, 512) == list(range(0, 9))

    def test_lines_of_range_exact(self):
        assert lines_of_range(64, 512) == list(range(1, 9))

    def test_lines_of_range_rejects_empty(self):
        with pytest.raises(ValueError):
            lines_of_range(0, 0)

    def test_iter_lines_matches_list(self):
        assert list(iter_lines(100, 200)) == lines_of_range(100, 200)

    def test_page_of_line(self):
        lines_per_page = PAGE_BYTES // 64
        assert page_of_line(0) == 0
        assert page_of_line(lines_per_page - 1) == 0
        assert page_of_line(lines_per_page) == 1


class TestStats:
    def test_hit_rate_zero_when_empty(self):
        assert CacheStats().hit_rate == 0.0

    def test_merge_sums_counters(self):
        a = CacheStats(demand_hits=3, demand_misses=1)
        b = CacheStats(demand_hits=1, demand_misses=1, evictions=2)
        merged = a.merge(b)
        assert merged.demand_hits == 4
        assert merged.demand_misses == 2
        assert merged.evictions == 2

    def test_prefetch_accuracy(self):
        stats = CacheStats(prefetch_fills=10, prefetch_useful=7)
        assert stats.prefetch_accuracy == pytest.approx(0.7)

    def test_reset(self):
        stats = CacheStats(demand_hits=5)
        stats.reset()
        assert stats.demand_hits == 0

    def test_hierarchy_stats_record_and_fractions(self):
        h = HierarchyStats()
        h.record("l1", 5.0)
        h.record("dram", 290.0)
        assert h.demand_accesses == 2
        assert h.hit_fraction("l1") == pytest.approx(0.5)
        assert h.avg_load_latency == pytest.approx(147.5)

    def test_hierarchy_stats_merge(self):
        a = HierarchyStats()
        a.record("l1", 5.0)
        b = HierarchyStats()
        b.record("l1", 5.0)
        b.record("l2", 14.0)
        merged = a.merge(b)
        assert merged.demand_accesses == 3
        assert merged.level_hits["l1"] == 2
