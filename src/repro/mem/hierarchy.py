"""The three-level cache walk: private L1D/L2, shared L3, DRAM.

:class:`MemoryHierarchy` is what the execution engines talk to.  A demand
load probes L1D, L2, L3 in order, pays the latency of the level that serves
it (cumulative probe costs included), and fills the line into every level on
the way back (mostly-inclusive, like the modeled Xeons).  Hardware
prefetchers observe the demand stream at L1 and L2 and their candidate lines
are fetched off the critical path.

Every level is a :class:`~repro.mem.fastcache.FastCache`, the package's
one cache implementation.  The L3 and :class:`~repro.mem.dram.DRAMModel`
instances may be shared between per-core hierarchies, which is how the
multi-core engine models constructive/destructive LLC sharing (Section 3.1
inter-core reuse class) and bandwidth contention.

The fused embedding kernel (:func:`repro.engine.embedding_exec._fused_walk`)
inlines ``load_timing``, ``prefetch_timing`` and ``hw_prefetch_candidates``;
a change to them must be made there too.  The per-line embedding loop of
``tests/embedding_oracle.py`` drives these three methods over the oracle's
reference caches, and ``tests/test_engine_fastpath.py`` diffs it against
the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..errors import ConfigError
from ..units import kib, mib
from .dram import DRAMConfig, DRAMModel
from .fastcache import FastCache
from .prefetcher import (
    CompositePrefetcher,
    NextLinePrefetcher,
    NullPrefetcher,
    StreamerPrefetcher,
    StridePrefetcher,
)
from .stats import HierarchyStats

__all__ = ["HierarchyConfig", "MemoryHierarchy", "build_hierarchy", "set_default_engine"]


def set_default_engine(engine: str) -> None:
    """Accept the one memory engine there is; reject any other name.

    Kept for callers written when the package had a second engine: the
    per-line reference walk now lives in ``tests/embedding_oracle.py``.
    """
    if engine != "fast":
        raise ConfigError(f"engine must be 'fast', got {engine!r}")


@dataclass(frozen=True)
class HierarchyConfig:
    """Geometry and latency of one core's view of the memory system.

    Defaults follow the paper's Cascade Lake 6240R (Table 3) with L2/L3
    latencies from Intel's published figures.
    """

    l1_size: int = kib(32)
    l1_ways: int = 8
    l1_latency: float = 5.0
    l2_size: int = mib(1)
    l2_ways: int = 16
    l2_latency: float = 14.0
    l3_size: int = int(mib(35.75))
    l3_ways: int = 11
    l3_latency: float = 50.0
    #: CAT-style LLC way allocation: when set, this core's workload may
    #: only fill this many of the L3's ways — the remaining ways belong to
    #: co-located tenants (Intel RDT/CAT semantics: same sets, a subset of
    #: the ways, so the LRU stack property makes hit rates monotone in the
    #: allocation).  ``None`` keeps the full LLC and is byte-identical to
    #: the pre-tenancy model.
    l3_allocated_ways: Optional[int] = None
    dram: DRAMConfig = field(default_factory=DRAMConfig)

    def __post_init__(self) -> None:
        if not self.l1_size < self.l2_size < self.l3_size:
            raise ConfigError("cache sizes must strictly increase L1 < L2 < L3")
        if not self.l1_latency < self.l2_latency < self.l3_latency:
            raise ConfigError("cache latencies must strictly increase L1 < L2 < L3")
        if self.l3_allocated_ways is not None:
            if not 1 <= self.l3_allocated_ways <= self.l3_ways:
                raise ConfigError(
                    f"l3_allocated_ways must be in [1, {self.l3_ways}], "
                    f"got {self.l3_allocated_ways}"
                )
            if self.effective_l3_size <= self.l2_size:
                raise ConfigError(
                    "L3 way allocation shrinks the effective LLC "
                    f"({self.effective_l3_size} B) to at or below the L2 "
                    f"({self.l2_size} B); allocate more ways"
                )

    @property
    def effective_l3_ways(self) -> int:
        """Ways of the L3 this workload may use (all of them without CAT)."""
        if self.l3_allocated_ways is None:
            return self.l3_ways
        return self.l3_allocated_ways

    @property
    def effective_l3_size(self) -> int:
        """Bytes of the L3 this workload may fill.

        Way-granular, like real CAT masks: the per-way capacity times the
        allocated way count.  Set count is unchanged (same index bits,
        fewer ways per set).
        """
        if self.l3_allocated_ways is None:
            return self.l3_size
        return (self.l3_size // self.l3_ways) * self.l3_allocated_ways


class MemoryHierarchy:
    """One core's L1D + L2, wired to a (possibly shared) L3 and DRAM."""

    def __init__(
        self,
        l1: FastCache,
        l2: FastCache,
        l3: FastCache,
        dram: DRAMModel,
        config: HierarchyConfig,
        hw_prefetch: bool = True,
    ) -> None:
        self.l1 = l1
        self.l2 = l2
        self.l3 = l3
        self.dram = dram
        self.config = config
        self.stats = HierarchyStats()
        self.hw_prefetch_enabled = hw_prefetch
        # Intel-style complement: next-line at L1, streamer + stride at L2.
        self.l1_prefetcher = NextLinePrefetcher(degree=1)
        self.l2_prefetcher = CompositePrefetcher(
            StreamerPrefetcher(degree=2), StridePrefetcher(degree=2)
        )
        if not hw_prefetch:
            self.l1_prefetcher = NullPrefetcher()
            self.l2_prefetcher = NullPrefetcher()

    # -- the walk ----------------------------------------------------------

    def load_timing(self, line: int) -> Tuple[float, str]:
        """Demand-load one cache line; return ``(latency, level)``.

        The line fills every level it missed on the way back.
        Hardware-prefetch *candidates* triggered by this access are not
        fetched here: an embedding walk asks for them via
        :meth:`hw_prefetch_candidates` and fetches them itself, so their
        timeliness is modeled like any other fetch.
        """
        cfg = self.config
        if self.l1.access(line):
            level, latency = "l1", cfg.l1_latency
        elif self.l2.access(line):
            self.l1.fill(line)
            level, latency = "l2", cfg.l2_latency
        elif self.l3.access(line):
            self.l2.fill(line)
            self.l1.fill(line)
            level, latency = "l3", cfg.l3_latency
        else:
            dram_latency = self.dram.access(line)
            self.l3.fill(line)
            self.l2.fill(line)
            self.l1.fill(line)
            level, latency = "dram", cfg.l3_latency + dram_latency
            self.stats.dram_bytes += 64
        stats = self.stats
        hits = stats.level_hits
        hits[level] = hits.get(level, 0) + 1
        stats.total_latency_cycles += latency
        stats.demand_accesses += 1
        return latency, level

    # -- batched demand walk ------------------------------------------------

    #: Upper bound on one vectorized chunk (keeps temporaries cache-friendly).
    MAX_BATCH = 8192

    #: Below this average wave size the chunk is walked scalar — numpy
    #: dispatch overhead on tiny waves would lose to the per-line path
    #: (hit on pathological streams like one row repeated back-to-back).
    MIN_WAVE = 12

    def access_lines(self, lines: np.ndarray) -> np.ndarray:
        """Demand-load many lines; return their latencies in access order.

        Exactly equivalent — same per-level stats, same fill ordering, same
        eviction decisions, same DRAM access order — to::

            np.array([self.load_timing(int(l))[0] for l in lines])

        but the walk is vectorized: each level partitions its slice of the
        stream into *occurrence-rank waves* (wave k holds the lines whose
        set already appeared k times in the chunk), so within a wave every
        set is touched at most once and the fused lookup+fill can run as
        array ops, while per-set event order — the only thing replacement
        state depends on — stays sequential.  DRAM accesses are issued in
        original stream order, so the open-row state also matches the
        scalar walk bit for bit.

        Hardware-prefetcher observation is *not* performed here, matching
        :meth:`load_timing` — callers that model HW prefetching must use the
        scalar walk, since candidates depend on each line's serving level.
        """
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        n = lines.size
        if n == 0:
            return np.empty(0, dtype=np.float64)
        out = np.empty(n, dtype=np.float64)
        pos = 0
        while pos < n:
            end = min(pos + self.MAX_BATCH, n)
            out[pos:end] = self._access_chunk(lines[pos:end])
            pos = end
        return out

    def _access_chunk(self, chunk: np.ndarray) -> np.ndarray:
        """Walk one chunk of the batched demand stream through all levels."""
        cfg = self.config
        n = chunk.size
        order, bounds = _wave_partition(chunk % self.l1.num_sets)
        if n < bounds.size * self.MIN_WAVE:
            return np.fromiter(
                (self.load_timing(l)[0] for l in chunk.tolist()), np.float64, n
            )
        stats = self.stats
        lat = np.full(n, cfg.l1_latency, dtype=np.float64)
        hit1 = _run_waves(self.l1, chunk, order, bounds)
        m1_idx = np.nonzero(~hit1)[0]
        n_l2 = n_l3 = n_dram = 0
        if m1_idx.size:
            m1 = chunk[m1_idx]
            lat[m1_idx] = cfg.l2_latency
            m2_idx = m1_idx[~_demand_walk(self.l2, m1)]
            if m2_idx.size:
                m2 = chunk[m2_idx]
                lat[m2_idx] = cfg.l3_latency
                m3_idx = m2_idx[~_demand_walk(self.l3, m2)]
                if m3_idx.size:
                    m3 = chunk[m3_idx]
                    lat[m3_idx] = cfg.l3_latency + self.dram.access_batch(m3)
                    stats.dram_bytes += 64 * m3.size
                    n_dram = m3_idx.size
                n_l3 = m2_idx.size - n_dram
            n_l2 = m1_idx.size - n_l3 - n_dram
        hits = stats.level_hits
        for level, count in (
            ("l1", n - m1_idx.size),
            ("l2", n_l2),
            ("l3", n_l3),
            ("dram", n_dram),
        ):
            if count:
                hits[level] = hits.get(level, 0) + count
        # Left to right from the running total, as the scalar walk adds
        # (np.sum's pairwise order would round differently).
        stats.total_latency_cycles = float(
            np.cumsum(np.concatenate(([stats.total_latency_cycles], lat)))[-1]
        )
        stats.demand_accesses += n
        return lat

    def prefetch_timing(self, line: int, target_level: str = "l1") -> Tuple[float, str]:
        """Fetch ``line`` off the critical path into ``target_level``.

        This is the mechanism behind both hardware prefetch candidates and
        the paper's ``_mm_prefetch``-based software prefetching.  Returns
        ``(latency, level)``: the fetch's *completion* latency, which the
        software prefetch timeliness model compares to the prefetch
        distance, and the level that served it.
        """
        if target_level not in ("l1", "l2", "l3"):
            raise ConfigError(f"unknown prefetch target level {target_level!r}")
        self.stats.prefetch_requests += 1
        cfg = self.config
        if self.l1.access(line, is_prefetch=True):
            return cfg.l1_latency, "l1"
        if self.l2.access(line, is_prefetch=True):
            latency, level = cfg.l2_latency, "l2"
        elif self.l3.access(line, is_prefetch=True):
            latency, level = cfg.l3_latency, "l3"
        else:
            latency, level = cfg.l3_latency + self.dram.access(line), "dram"
            self.l3.fill(line, from_prefetch=True)
            self.stats.dram_bytes += 64
        if target_level in ("l1", "l2"):
            self.l2.fill(line, from_prefetch=True)
        if target_level == "l1":
            self.l1.fill(line, from_prefetch=True)
        return latency, level

    def hw_prefetch_candidates(self, line: int, l1_hit: bool) -> List["tuple[int, str]"]:
        """``(line, target_level)`` pairs the HW prefetchers want fetched.

        The L1 next-line (DCU) prefetcher fills L1; the L2 streamer/stride
        prefetchers fill L2 only — real streamers never pollute the L1D.
        Already-resident and negative lines are filtered out.  Returns an
        empty list when hardware prefetching is disabled (the paper's
        "w/o HW-PF" design point via ``msr-tools``).
        """
        if not self.hw_prefetch_enabled:
            return []
        candidates: List["tuple[int, str]"] = [
            (c, "l1")
            for c in self.l1_prefetcher.observe(line, l1_hit)
            if c >= 0 and not self.l1.contains(c)
        ]
        if not l1_hit:
            candidates.extend(
                (c, "l2")
                for c in self.l2_prefetcher.observe(line, False)
                if c >= 0 and not self.l2.contains(c)
            )
        return candidates

    # -- probes and maintenance ---------------------------------------------

    def flush(self) -> None:
        """Empty every private level (the shared L3 is flushed by its owner)."""
        self.l1.flush()
        self.l2.flush()

    def reset_stats(self) -> None:
        """Zero hierarchy and per-level statistics; keep contents."""
        self.stats = HierarchyStats()
        self.l1.reset_stats()
        self.l2.reset_stats()

    def publish_metrics(self, registry, **labels: str) -> None:
        """Publish hierarchy, per-level, and DRAM counters into ``registry``.

        Called by the execution engines at end of run when an observation
        is active (:mod:`repro.obs.hooks`) — never from the per-line walk,
        so enabling observability cannot perturb simulation results or the
        fast engine's throughput.  Shared L3/DRAM instances are published
        by every owning hierarchy; callers who share levels across cores
        should publish through one hierarchy only or label per core.
        """
        self.stats.publish(registry, **labels)
        for level in (self.l1, self.l2, self.l3):
            level.publish_metrics(registry, **labels)
        self.dram.publish_metrics(registry, **labels)
        registry.gauge("mem.avg_load_latency_cycles", **labels).set(
            self.stats.avg_load_latency
        )


def _wave_partition(sets: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Partition indices of ``sets`` into conflict-free waves.

    Wave k contains the indices whose set value appeared exactly k times
    earlier in the array, in ascending index order.  Within a wave all set
    values are therefore pairwise distinct (safe to vectorize), and for any
    single set value its indices are spread across consecutive waves in
    their original order — so processing waves 0, 1, 2, ... is exactly
    equivalent, per set, to processing the array sequentially.

    Returns ``(order, bounds)``: ``order`` is a permutation of indices and
    ``bounds`` the cumulative wave end offsets, so wave k is
    ``order[bounds[k-1]:bounds[k]]`` (with ``bounds[-1] == 0`` implied).

    The occurrence rank is computed with one stable argsort: sorting groups
    equal set values with their indices ascending, and the position within
    each group is the rank.
    """
    n = sets.size
    order = np.argsort(sets, kind="stable")
    ss = sets[order]
    idx = np.arange(n, dtype=np.int64)
    newgrp = np.empty(n, dtype=bool)
    newgrp[0] = True
    np.not_equal(ss[1:], ss[:-1], out=newgrp[1:])
    rank_sorted = idx - np.maximum.accumulate(np.where(newgrp, idx, 0))
    max_rank = int(rank_sorted.max()) if n else 0
    if max_rank == 0:
        return idx, np.array([n], dtype=np.int64)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = rank_sorted
    waves = np.argsort(rank, kind="stable")
    bounds = np.cumsum(np.bincount(rank, minlength=max_rank + 1))
    return waves, bounds


def _run_waves(cache, lines: np.ndarray, order: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Feed a pre-partitioned stream through ``cache.demand_wave``."""
    if bounds.size == 1:
        return cache.demand_wave(lines)
    hit = np.empty(lines.size, dtype=bool)
    start = 0
    for end in bounds.tolist():
        idxs = order[start:end]
        hit[idxs] = cache.demand_wave(lines[idxs])
        start = end
    return hit


def _demand_walk(cache, lines: np.ndarray) -> np.ndarray:
    """Demand-access+fill ``lines`` at one level; returns hits in order."""
    order, bounds = _wave_partition(lines % cache.num_sets)
    return _run_waves(cache, lines, order, bounds)


def build_hierarchy(
    config: HierarchyConfig = HierarchyConfig(),
    shared_l3: Optional[FastCache] = None,
    shared_dram: Optional[DRAMModel] = None,
    hw_prefetch: bool = True,
) -> MemoryHierarchy:
    """Construct one core's hierarchy.

    Pass the same ``shared_l3`` / ``shared_dram`` objects to several calls to
    model cores of one socket sharing their LLC and memory channels.
    """
    l1 = FastCache("l1", config.l1_size, config.l1_ways)
    l2 = FastCache("l2", config.l2_size, config.l2_ways)
    l3 = shared_l3 or FastCache(
        "l3", config.effective_l3_size, config.effective_l3_ways
    )
    dram = shared_dram or DRAMModel(config.dram)
    return MemoryHierarchy(l1, l2, l3, dram, config, hw_prefetch=hw_prefetch)
