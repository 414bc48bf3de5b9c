"""Replacement-policy tests."""

import pytest

from embedding_oracle import (
    FIFOPolicy,
    LRUPolicy,
    PLRUTreePolicy,
    POLICY_NAMES,
    RandomPolicy,
    make_policy,
)
from repro.errors import ConfigError


class TestLRU:
    def test_fills_before_evicting(self):
        lru = LRUPolicy(2)
        assert lru.insert(1) is None
        assert lru.insert(2) is None
        assert lru.insert(3) == 1  # 1 was least recent

    def test_hit_refreshes_recency(self):
        lru = LRUPolicy(2)
        lru.insert(1)
        lru.insert(2)
        assert lru.lookup(1)
        assert lru.insert(3) == 2  # 2 became LRU after 1's hit

    def test_miss_returns_false(self):
        lru = LRUPolicy(2)
        assert not lru.lookup(99)

    def test_reinsert_resident_tag_evicts_nothing(self):
        lru = LRUPolicy(2)
        lru.insert(1)
        lru.insert(2)
        assert lru.insert(1) is None
        assert sorted(lru.resident_tags()) == [1, 2]

    def test_invalidate(self):
        lru = LRUPolicy(2)
        lru.insert(1)
        assert lru.invalidate(1)
        assert not lru.invalidate(1)
        assert not lru.peek(1)

    def test_peek_does_not_change_order(self):
        lru = LRUPolicy(2)
        lru.insert(1)
        lru.insert(2)
        assert lru.peek(1)
        assert lru.insert(3) == 1  # peek did not refresh 1


class TestFIFO:
    def test_evicts_in_insertion_order_despite_hits(self):
        fifo = FIFOPolicy(2)
        fifo.insert(1)
        fifo.insert(2)
        assert fifo.lookup(1)  # would save 1 under LRU
        assert fifo.insert(3) == 1  # FIFO still evicts 1

    def test_len_tracks_occupancy(self):
        fifo = FIFOPolicy(4)
        for t in range(3):
            fifo.insert(t)
        assert len(fifo) == 3


class TestRandom:
    def test_deterministic_for_fixed_seed(self):
        a = RandomPolicy(2, seed=9)
        b = RandomPolicy(2, seed=9)
        evictions_a = [a.insert(t) for t in range(10)]
        evictions_b = [b.insert(t) for t in range(10)]
        assert evictions_a == evictions_b

    def test_never_exceeds_ways(self):
        pol = RandomPolicy(4, seed=0)
        for t in range(100):
            pol.insert(t)
        assert len(pol.resident_tags()) == 4


class TestPLRU:
    def test_requires_power_of_two_ways(self):
        with pytest.raises(ConfigError):
            PLRUTreePolicy(3)

    def test_tracks_residency(self):
        plru = PLRUTreePolicy(4)
        for t in range(4):
            assert plru.insert(t) is None
        assert all(plru.lookup(t) for t in range(4))

    def test_never_evicts_most_recent_way(self):
        # Tree-PLRU only approximates LRU: the victim is whatever the tree
        # bits point away from, but it is never the most recently used way.
        plru = PLRUTreePolicy(4)
        for t in range(4):
            plru.insert(t)
        plru.lookup(0)
        plru.lookup(1)
        plru.lookup(3)
        evicted = plru.insert(4)
        assert evicted is not None
        assert evicted != 3  # 3 was touched last

    def test_plru_approximation_differs_from_true_lru(self):
        # The classical PLRU artifact: after touching 0, 1, 3 the root bit
        # points left (3 was last), so the victim comes from {0, 1} even
        # though 2 is the globally least-recent way.
        plru = PLRUTreePolicy(4)
        for t in range(4):
            plru.insert(t)
        plru.lookup(0)
        plru.lookup(1)
        plru.lookup(3)
        assert plru.insert(4) == 0

    def test_occupancy_bounded(self):
        plru = PLRUTreePolicy(8)
        for t in range(50):
            plru.insert(t)
        assert len(plru.resident_tags()) == 8

    def test_invalidate_frees_slot(self):
        plru = PLRUTreePolicy(2)
        plru.insert(1)
        plru.insert(2)
        assert plru.invalidate(1)
        assert plru.insert(3) is None  # reused the freed way


def test_make_policy_covers_all_names():
    for name in POLICY_NAMES:
        policy = make_policy(name, 4)
        policy.insert(1)
        assert policy.peek(1)


def test_make_policy_rejects_unknown():
    with pytest.raises(ConfigError):
        make_policy("mru", 4)


def test_zero_ways_rejected():
    with pytest.raises(ConfigError):
        LRUPolicy(0)
