"""Differential oracle for the memory hierarchy and the embedding walk.

A frozen copy of the code the package's one cache engine replaced: the
per-set-object cache (:class:`Cache`, one replacement-policy object per
set), the eager out-of-order core (:class:`OracleCore`, which retires
in-flight loads on every issue) and the generic per-line embedding loop
(:func:`run_embedding_trace`), which drives
``MemoryHierarchy.load_timing`` / ``prefetch_timing`` /
``hw_prefetch_candidates`` one line at a time.  The package's
``FastCache``, its bulk walk and its fused kernel
(``repro.engine.embedding_exec``) share none of this code, so equality
of the two (every ``EmbeddingRunResult`` field, every counter, every
resident line) is a real check.  Only ``tests/`` and ``benchmarks/``
import it.

It also keeps what only unit tests and ablations use: FIFO, random and
tree-PLRU replacement, the two-level TLB, and the output stores of
Algorithm 1 (``run_embedding_trace(tlb=..., model_stores=True)``).
It reuses the package's hierarchy class, prefetchers, DRAM model, lookup
stream, telemetry and result assembly.

:func:`oracle_engine` swaps the oracle in for the package inside a
``with`` block, so whole experiment reports can be diffed.  The
differential tests' parameter id ``"fast"`` is the package,
``"reference"`` this oracle.
"""

from __future__ import annotations

import random
import sys
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.analysis.interference  # noqa: F401  (patched by oracle_engine)
import repro.experiments.registry  # noqa: F401  (imports every experiment)
from repro.cpu.core import CoreModel, CoreSpec
from repro.engine import embedding_exec
from repro.engine.embedding_exec import (
    EmbeddingRunResult,
    PrefetchPlan,
    _build_lookup_stream,
    _finish,
    _observe,
)
from repro.engine.kernels import KernelCostModel
from repro.errors import ConfigError
from repro.mem import hierarchy as package_hierarchy
from repro.mem.dram import DRAMModel
from repro.mem.fastcache import FastCache
from repro.mem.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.mem.stats import CacheStats
from repro.trace.dataset import EmbeddingTrace
from repro.trace.stream import AddressMap
from repro.units import CACHE_LINE_BYTES

_INF = float("inf")


# -- replacement policies ---------------------------------------------------
#
# Each policy manages one cache set: ``lookup`` (hit updates recency),
# ``insert`` (returns the evicted tag or None), ``peek`` (no side effects).


class SetPolicy:
    """Base class: a fixed-associativity set of tags."""

    __slots__ = ("ways",)

    def __init__(self, ways: int) -> None:
        if ways <= 0:
            raise ConfigError(f"associativity must be positive, got {ways}")
        self.ways = ways

    def resident_tags(self) -> List[int]:
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self.resident_tags())


class LRUPolicy(SetPolicy):
    """True LRU: tags in a list ordered LRU-first."""

    __slots__ = ("_order",)

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        self._order: List[int] = []

    def lookup(self, tag: int) -> bool:
        order = self._order
        if tag in order:
            order.remove(tag)
            order.append(tag)
            return True
        return False

    def insert(self, tag: int) -> Optional[int]:
        order = self._order
        if tag in order:
            order.remove(tag)
            order.append(tag)
            return None
        evicted = None
        if len(order) >= self.ways:
            evicted = order.pop(0)
        order.append(tag)
        return evicted

    def peek(self, tag: int) -> bool:
        return tag in self._order

    def invalidate(self, tag: int) -> bool:
        if tag in self._order:
            self._order.remove(tag)
            return True
        return False

    def resident_tags(self) -> List[int]:
        return list(self._order)


class FIFOPolicy(SetPolicy):
    """First-in first-out: evict the oldest fill, ignore hits."""

    __slots__ = ("_queue", "_resident")

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        self._queue: List[int] = []
        self._resident: Dict[int, bool] = {}

    def lookup(self, tag: int) -> bool:
        return tag in self._resident

    def insert(self, tag: int) -> Optional[int]:
        if tag in self._resident:
            return None
        evicted = None
        if len(self._queue) >= self.ways:
            evicted = self._queue.pop(0)
            del self._resident[evicted]
        self._queue.append(tag)
        self._resident[tag] = True
        return evicted

    def peek(self, tag: int) -> bool:
        return tag in self._resident

    def invalidate(self, tag: int) -> bool:
        if tag in self._resident:
            del self._resident[tag]
            self._queue.remove(tag)
            return True
        return False

    def resident_tags(self) -> List[int]:
        return list(self._queue)


class RandomPolicy(SetPolicy):
    """Random replacement with a per-set deterministic RNG."""

    __slots__ = ("_tags", "_rng")

    def __init__(self, ways: int, seed: int = 0) -> None:
        super().__init__(ways)
        self._tags: List[int] = []
        self._rng = random.Random(seed)

    def lookup(self, tag: int) -> bool:
        return tag in self._tags

    def insert(self, tag: int) -> Optional[int]:
        if tag in self._tags:
            return None
        evicted = None
        if len(self._tags) >= self.ways:
            evicted = self._tags.pop(self._rng.randrange(len(self._tags)))
        self._tags.append(tag)
        return evicted

    def peek(self, tag: int) -> bool:
        return tag in self._tags

    def invalidate(self, tag: int) -> bool:
        if tag in self._tags:
            self._tags.remove(tag)
            return True
        return False

    def resident_tags(self) -> List[int]:
        return list(self._tags)


class PLRUTreePolicy(SetPolicy):
    """Tree pseudo-LRU (power-of-two ways): direction bits point away from
    recently used ways; the victim follows the bits from the root."""

    __slots__ = ("_slots", "_bits", "_tag_to_way", "_levels")

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        if ways & (ways - 1):
            raise ConfigError(f"PLRU requires power-of-two ways, got {ways}")
        self._slots: List[Optional[int]] = [None] * ways
        self._bits = [0] * max(ways - 1, 1)
        self._tag_to_way: Dict[int, int] = {}
        self._levels = ways.bit_length() - 1

    def _touch(self, way: int) -> None:
        node = 0
        for level in range(self._levels):
            bit = (way >> (self._levels - 1 - level)) & 1
            self._bits[node] = 1 - bit
            node = 2 * node + 1 + bit

    def _victim_way(self) -> int:
        node = way = 0
        for _ in range(self._levels):
            bit = self._bits[node]
            way = (way << 1) | bit
            node = 2 * node + 1 + bit
        return way

    def lookup(self, tag: int) -> bool:
        way = self._tag_to_way.get(tag)
        if way is None:
            return False
        self._touch(way)
        return True

    def insert(self, tag: int) -> Optional[int]:
        if tag in self._tag_to_way:
            self._touch(self._tag_to_way[tag])
            return None
        evicted = None
        if None in self._slots:
            way = self._slots.index(None)
        else:
            way = self._victim_way()
            evicted = self._slots[way]
            del self._tag_to_way[evicted]
        self._slots[way] = tag
        self._tag_to_way[tag] = way
        self._touch(way)
        return evicted

    def peek(self, tag: int) -> bool:
        return tag in self._tag_to_way

    def invalidate(self, tag: int) -> bool:
        way = self._tag_to_way.pop(tag, None)
        if way is None:
            return False
        self._slots[way] = None
        return True

    def resident_tags(self) -> List[int]:
        return [tag for tag in self._slots if tag is not None]


POLICY_NAMES = ("lru", "fifo", "random", "plru")


def make_policy(name: str, ways: int, seed: int = 0) -> SetPolicy:
    """Instantiate a per-set policy by name (see :data:`POLICY_NAMES`)."""
    lowered = name.lower()
    if lowered == "lru":
        return LRUPolicy(ways)
    if lowered == "fifo":
        return FIFOPolicy(ways)
    if lowered == "random":
        return RandomPolicy(ways, seed=seed)
    if lowered == "plru":
        return PLRUTreePolicy(ways)
    raise ConfigError(f"unknown replacement policy {name!r}; expected one of {POLICY_NAMES}")


# -- one cache level ---------------------------------------------------------


class Cache:
    """One set-associative level over one policy object per set.

    Same interface as :class:`~repro.mem.fastcache.FastCache`'s scalar
    half.  A miss does not fill: the hierarchy fills explicitly.  Set
    ``i``'s policy is seeded ``seed + i``.
    """

    def __init__(
        self, name: str, size_bytes: int, ways: int, policy: str = "lru", seed: int = 0
    ) -> None:
        if size_bytes <= 0:
            raise ConfigError(f"cache size must be positive, got {size_bytes}")
        lines = size_bytes // CACHE_LINE_BYTES
        if lines % ways:
            raise ConfigError(
                f"{name}: {size_bytes} bytes is not divisible into {ways}-way sets"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.num_sets = lines // ways
        self.policy_name = policy
        self.stats = CacheStats()
        self._seed = seed
        self.flush()

    @property
    def capacity_lines(self) -> int:
        return self.num_sets * self.ways

    def set_index(self, line: int) -> int:
        return line % self.num_sets

    def tag_of(self, line: int) -> int:
        return line // self.num_sets

    def access(self, line: int, is_prefetch: bool = False) -> bool:
        """Look up ``line``; return True on hit (a hit updates recency)."""
        hit = self._sets[self.set_index(line)].lookup(self.tag_of(line))
        if is_prefetch:
            if hit:
                self.stats.prefetch_hits += 1
        elif hit:
            self.stats.demand_hits += 1
            if self._pending_prefetched.pop(line, None):
                self.stats.prefetch_useful += 1
        else:
            self.stats.demand_misses += 1
        return hit

    def contains(self, line: int) -> bool:
        return self._sets[self.set_index(line)].peek(self.tag_of(line))

    def fill(self, line: int, from_prefetch: bool = False) -> Optional[int]:
        """Install ``line``; return the evicted line number, if any."""
        set_idx = self.set_index(line)
        evicted_tag = self._sets[set_idx].insert(self.tag_of(line))
        if from_prefetch:
            self.stats.prefetch_fills += 1
            self._pending_prefetched[line] = True
        if evicted_tag is None:
            return None
        self.stats.evictions += 1
        evicted_line = evicted_tag * self.num_sets + set_idx
        if self._pending_prefetched.pop(evicted_line, None):
            self.stats.prefetch_evicted_unused += 1
        return evicted_line

    def invalidate(self, line: int) -> bool:
        self._pending_prefetched.pop(line, None)
        return self._sets[self.set_index(line)].invalidate(self.tag_of(line))

    def flush(self) -> None:
        """Empty the cache, keeping statistics; policies are reseeded as
        at construction, so a flushed cache behaves like a fresh one."""
        self._sets: List[SetPolicy] = [
            make_policy(self.policy_name, self.ways, seed=self._seed + i)
            for i in range(self.num_sets)
        ]
        # Lines filled by prefetch and not yet demanded.
        self._pending_prefetched: Dict[int, bool] = {}

    def reset_stats(self) -> None:
        self.stats.reset()

    def publish_metrics(self, registry, **labels: str) -> None:
        self.stats.publish(registry, cache=self.name, **labels)

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)


# -- address translation -----------------------------------------------------


@dataclass(frozen=True)
class TLBConfig:
    """Two-level TLB geometry (defaults: Cascade-Lake-like, 2 MiB pages)."""

    page_bytes: int = 2 * 1024 * 1024
    l1_entries: int = 32
    stlb_entries: int = 1536
    l1_hit_cycles: float = 0.0
    stlb_hit_cycles: float = 7.0
    walk_cycles: float = 35.0

    def __post_init__(self) -> None:
        if self.page_bytes <= 0 or self.page_bytes & (self.page_bytes - 1):
            raise ConfigError("page size must be a positive power of two")
        if self.l1_entries <= 0 or self.stlb_entries <= 0:
            raise ConfigError("TLB entry counts must be positive")
        if self.l1_entries > self.stlb_entries:
            raise ConfigError("the STLB must be at least as large as the L1 TLB")
        if min(self.l1_hit_cycles, self.stlb_hit_cycles, self.walk_cycles) < 0:
            raise ConfigError("TLB latencies must be non-negative")


def _lru_lookup(entries: Dict[int, None], key: int) -> bool:
    """Hit test on a dict-ordered fully-associative LRU; a hit moves to MRU."""
    if key in entries:
        del entries[key]
        entries[key] = None
        return True
    return False


def _lru_insert(entries: Dict[int, None], key: int, capacity: int) -> None:
    if key in entries:
        del entries[key]
    elif len(entries) >= capacity:
        del entries[next(iter(entries))]
    entries[key] = None


class TLBModel:
    """Fully-associative two-level TLB with LRU replacement and a fixed
    page-walk cost; translation cost is added to a row's first line."""

    def __init__(self, config: TLBConfig = TLBConfig()) -> None:
        self.config = config
        self.reset()

    def page_of_line(self, line: int) -> int:
        return (line * CACHE_LINE_BYTES) // self.config.page_bytes

    def translate_line(self, line: int) -> float:
        return self.translate(self.page_of_line(line))

    def translate(self, page: int) -> float:
        """Translate a page number; return the added latency in cycles."""
        cfg = self.config
        if _lru_lookup(self._l1, page):
            self.l1_hits += 1
            return cfg.l1_hit_cycles
        if _lru_lookup(self._stlb, page):
            self.stlb_hits += 1
            _lru_insert(self._l1, page, cfg.l1_entries)
            return cfg.stlb_hit_cycles
        self.walks += 1
        _lru_insert(self._stlb, page, cfg.stlb_entries)
        _lru_insert(self._l1, page, cfg.l1_entries)
        return cfg.walk_cycles

    @property
    def accesses(self) -> int:
        return self.l1_hits + self.stlb_hits + self.walks

    @property
    def walk_rate(self) -> float:
        return self.walks / self.accesses if self.accesses else 0.0

    def reach_bytes(self) -> int:
        return self.config.stlb_entries * self.config.page_bytes

    def reset(self) -> None:
        self._l1: Dict[int, None] = {}
        self._stlb: Dict[int, None] = {}
        self.l1_hits = self.stlb_hits = self.walks = 0


# -- the hierarchy, one line at a time ---------------------------------------


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one load or prefetch walking the hierarchy."""

    level: str
    latency: float
    line: int
    prefetch: bool = False

    @property
    def was_off_chip(self) -> bool:
        return self.level == "dram"


def load(hierarchy: MemoryHierarchy, line: int) -> AccessResult:
    """Demand-load one line through ``hierarchy`` (package or oracle)."""
    latency, level = hierarchy.load_timing(line)
    return AccessResult(level, latency, line)


def prefetch(hierarchy: MemoryHierarchy, line: int, target_level: str = "l1") -> AccessResult:
    """Fetch ``line`` off the critical path into ``target_level``."""
    latency, level = hierarchy.prefetch_timing(line, target_level)
    return AccessResult(level, latency, line, prefetch=True)


def resident_level(hierarchy: MemoryHierarchy, line: int) -> Optional[str]:
    """Closest level holding ``line``; None if only in DRAM."""
    for cache in (hierarchy.l1, hierarchy.l2, hierarchy.l3):
        if cache.contains(line):
            return cache.name
    return None


def latency_of_level(hierarchy: MemoryHierarchy, level: str) -> float:
    """Nominal load latency for a hit at ``level``."""
    cfg = hierarchy.config
    latencies = {
        "l1": cfg.l1_latency,
        "l2": cfg.l2_latency,
        "l3": cfg.l3_latency,
        "dram": cfg.l3_latency + cfg.dram.base_latency_cycles,
    }
    if level not in latencies:
        raise ConfigError(f"unknown level {level!r}")
    return latencies[level]


class OracleHierarchy(MemoryHierarchy):
    """The package hierarchy over oracle caches; its batched demand walk
    is the per-line ``load_timing`` loop."""

    def access_lines(self, lines: np.ndarray) -> np.ndarray:
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        return np.array(
            [self.load_timing(line)[0] for line in lines.tolist()], dtype=np.float64
        )


def build_hierarchy(
    config: HierarchyConfig = HierarchyConfig(),
    shared_l3: Optional[Cache] = None,
    shared_dram: Optional[DRAMModel] = None,
    hw_prefetch: bool = True,
    seed: int = 0,
    policy: str = "lru",
    l3_policy: Optional[str] = None,
) -> OracleHierarchy:
    """One core's hierarchy on oracle caches.  ``l3_policy`` overrides
    ``policy`` at the L3 (tree-PLRU needs power-of-two ways, which an
    11-way LLC lacks); level ``k``'s policies are seeded from ``seed + k``."""
    l1 = Cache("l1", config.l1_size, config.l1_ways, policy=policy, seed=seed)
    l2 = Cache("l2", config.l2_size, config.l2_ways, policy=policy, seed=seed + 1)
    l3 = shared_l3 or Cache(
        "l3", config.effective_l3_size, config.effective_l3_ways,
        policy=l3_policy or policy, seed=seed + 2,
    )
    dram = shared_dram or DRAMModel(config.dram)
    return OracleHierarchy(l1, l2, l3, dram, config, hw_prefetch=hw_prefetch)


# -- the eager core ----------------------------------------------------------


class OracleCore(CoreModel):
    """:class:`CoreModel` with per-event issue methods that retire
    completed loads eagerly, from deques of in-flight entries."""

    def _clear_inflight(self) -> None:
        # (issue index, completion, owns a fill buffer) of in-flight demand
        # loads, oldest first; merged loads own no fill buffer.
        self._inflight: Deque[Tuple[int, float, bool]] = deque()
        self._queued_count = 0
        self._mshr_demand = 0
        self._inflight_prefetch: Deque[float] = deque()
        # Earliest completion in each deque (inf when empty).
        self._min_inflight = _INF
        self._min_prefetch = _INF

    def issue_load(self, latency: float, is_miss: bool = True) -> float:
        """Issue one load; return the stall charged to it.  Hits are
        pipelined and cost only an issue slot."""
        self.instr_count += 1
        self.now += 1.0 / self.spec.issue_width
        self.loads += 1
        self._retire_completed()
        if not is_miss and latency <= self.HIT_PIPELINE_THRESHOLD:
            return 0.0
        self.misses += 1
        stall = self._enforce_window()
        stall += self._enforce_load_queue()
        stall += self._enforce_mshr_capacity()
        completion = self.now + latency
        self._inflight.append((self.instr_count, completion, True))
        if completion < self._min_inflight:
            self._min_inflight = completion
        self._queued_count += 1
        self._mshr_demand += 1
        return stall

    def issue_merged_load(self, completion: float) -> float:
        """Issue a demand load that merges into an in-flight prefetch's
        fill buffer: a window and load-queue slot until ``completion``."""
        self.instr_count += 1
        self.now += 1.0 / self.spec.issue_width
        self.loads += 1
        self.merged_loads += 1
        self._retire_completed()
        if completion <= self.now:
            return 0.0
        stall = self._enforce_window()
        stall += self._enforce_load_queue()
        self._inflight.append((self.instr_count, completion, False))
        if completion < self._min_inflight:
            self._min_inflight = completion
        self._queued_count += 1
        return stall

    def issue_prefetch(self, latency: float) -> float:
        """Issue one software prefetch: an issue slot and, for a miss, a
        fill buffer, but it retires at once (no load-queue slot)."""
        self.instr_count += 1
        self.now += 1.0 / self.spec.issue_width
        self.prefetches += 1
        self._retire_completed()
        if latency <= self.HIT_PIPELINE_THRESHOLD:
            return 0.0
        stall = self._enforce_mshr_capacity()
        completion = self.now + latency
        self._inflight_prefetch.append(completion)
        if completion < self._min_prefetch:
            self._min_prefetch = completion
        return stall

    def _enforce_load_queue(self) -> float:
        stall = 0.0
        while self._queued_count >= self.spec.demand_concurrency:
            earliest = self._min_inflight
            wait = max(0.0, earliest - self.now)
            self.now = max(self.now, earliest)
            stall += wait
            self.mshr_stall_cycles += wait
            self._retire_completed()
        return stall

    def _enforce_window(self) -> float:
        """Full-window stall: at most ROB entries past the oldest
        incomplete load."""
        stall = 0.0
        while self._inflight and (
            self.instr_count - self._inflight[0][0] >= self.spec.rob_entries
        ):
            head = self._inflight.popleft()
            wait = max(0.0, head[1] - self.now)
            self.now += wait
            stall += wait
            self.window_stall_cycles += wait
            self._queued_count -= 1
            if head[2]:
                self._mshr_demand -= 1
            if head[1] <= self._min_inflight:
                self._min_inflight = (
                    min(e[1] for e in self._inflight) if self._inflight else _INF
                )
            self._retire_completed()
        return stall

    def _enforce_mshr_capacity(self) -> float:
        stall = 0.0
        while self._mshr_demand + len(self._inflight_prefetch) >= self.spec.l1_mshrs:
            candidates = []
            if self._mshr_demand:
                candidates.append(min(t for _, t, owns in self._inflight if owns))
            if self._inflight_prefetch:
                candidates.append(self._min_prefetch)
            earliest = min(candidates)
            wait = max(0.0, earliest - self.now)
            self.now = max(self.now, earliest)
            stall += wait
            self.mshr_stall_cycles += wait
            self._retire_completed()
        return stall

    def _retire_completed(self) -> None:
        now = self.now
        if self._min_inflight <= now:
            self._inflight = deque(e for e in self._inflight if e[1] > now)
            self._queued_count = len(self._inflight)
            self._mshr_demand = sum(1 for e in self._inflight if e[2])
            self._min_inflight = (
                min(e[1] for e in self._inflight) if self._inflight else _INF
            )
        if self._min_prefetch <= now:
            self._inflight_prefetch = deque(
                t for t in self._inflight_prefetch if t > now
            )
            self._min_prefetch = (
                min(self._inflight_prefetch) if self._inflight_prefetch else _INF
            )

    def drain(self) -> float:
        """Wait for every demand load; prefetches need not land."""
        if self._inflight:
            self.now = max(self.now, max(t for _, t, _o in self._inflight))
        self._clear_inflight()
        return super().drain()

    def reset(self) -> None:
        super().reset()
        self._clear_inflight()


# -- the generic embedding loop ----------------------------------------------


def _store_rows(
    trace: EmbeddingTrace, amap: AddressMap, batch: int, loop_order: str
) -> List[int]:
    """First line of each (table, sample) output row, in the order the
    lookup stream starts its non-empty segments: one write-allocated row
    per segment, in a region 1 GiB past the last table."""
    row_lines = amap.row_lines
    base = (
        amap.table_bases[-1] + amap.rows_per_table[-1] * amap.row_bytes + (1 << 30)
    ) // CACHE_LINE_BYTES
    tables = [trace.table_batch(batch, t) for t in range(trace.num_tables)]
    if loop_order == "table_major":
        order = [(t, k) for t, tb in enumerate(tables) for k in range(tb.batch_size)]
    else:
        order = [
            (t, k) for k in range(tables[0].batch_size) for t in range(len(tables))
        ]
    return [
        base + ((batch * len(tables) + t) * tables[t].batch_size + k) * row_lines
        for t, k in order
        if tables[t].offsets[k + 1] > tables[t].offsets[k]
    ]


def run_embedding_trace(
    trace: EmbeddingTrace,
    amap: AddressMap,
    core_spec: CoreSpec,
    hierarchy: MemoryHierarchy,
    plan: Optional[PrefetchPlan] = None,
    cost: KernelCostModel = KernelCostModel(),
    batch_indices: Optional[Sequence[int]] = None,
    tlb: Optional[TLBModel] = None,
    model_stores: bool = False,
    loop_order: str = "table_major",
) -> EmbeddingRunResult:
    """The package's ``run_embedding_trace``, one event at a time.

    Takes any hierarchy.  ``tlb`` adds a row's translation cost to its
    first line's load latency; ``model_stores`` also executes the
    output-vector stores of Algorithm 1 (``vec.st accm``) as
    write-allocated loads of one output row per (sample, table) segment.
    """
    if loop_order not in ("table_major", "sample_major"):
        raise ConfigError(f"unknown loop order {loop_order!r}")
    if amap.num_tables != trace.num_tables:
        raise ConfigError("address map and trace disagree on table count")
    core = OracleCore(core_spec)
    row_lines = amap.row_lines
    if plan and plan.amount_lines > row_lines:
        plan = PrefetchPlan(plan.distance, row_lines, plan.target_level)
    batch_cycles: List[float] = []
    effective_latency_sum = 0.0
    demand_loads = 0
    hit_threshold = CoreModel.HIT_PIPELINE_THRESHOLD
    # line -> completion time of an in-flight prefetch of that line.
    pf_completion: Dict[int, float] = {}
    obs, obs_tid, obs_hist, obs_start = _observe(hierarchy)

    load_timing = hierarchy.load_timing
    prefetch_timing = hierarchy.prefetch_timing
    issue_compute = core.issue_compute
    issue_load = core.issue_load
    which_batches = batch_indices if batch_indices is not None else range(trace.num_batches)
    for b in which_batches:
        batch_start = core.now
        stream_lines, sample_flags = _build_lookup_stream(trace, amap, b, loop_order)
        stream_list = stream_lines.tolist()
        flags_list = sample_flags.tolist()
        n_lookups = len(stream_list)
        if model_stores:
            stores = iter(_store_rows(trace, amap, b, loop_order))
        for pos in range(n_lookups):
            if flags_list[pos]:
                issue_compute(cost.uops_per_sample_base)
                if model_stores:
                    # Write-allocate the sample's output row (zeroing
                    # kernel + final vec.st of the accumulators).
                    out_first = next(stores)
                    for cb in range(row_lines):
                        store_latency = load_timing(out_first + cb)[0]
                        issue_compute(1)
                        issue_load(store_latency, is_miss=store_latency > hit_threshold)
            issue_compute(cost.uops_per_lookup_base)
            tlb_penalty = tlb.translate_line(stream_list[pos]) if tlb is not None else 0.0
            if plan is not None and pos + plan.distance < n_lookups:
                pf_first = stream_list[pos + plan.distance]
                for line in range(pf_first, pf_first + plan.amount_lines):
                    if pf_completion.get(line, 0.0) > core.now:
                        # Already in flight: a no-op that takes an issue slot.
                        issue_compute(1)
                        continue
                    pf_latency = prefetch_timing(line, plan.target_level)[0]
                    core.issue_prefetch(pf_latency)
                    if pf_latency > hit_threshold:
                        pf_completion[line] = core.now + pf_latency
            base_line = stream_list[pos]
            for cb in range(row_lines):
                line = base_line + cb
                issue_compute(cost.uops_per_line)
                latency, level = load_timing(line)
                if cb == 0 and tlb_penalty > 0.0:
                    latency = latency + tlb_penalty
                pending = pf_completion.pop(line, None)
                if pending is not None and pending > core.now:
                    # Late prefetch: the load merges into its fill buffer
                    # and waits only for the residual.
                    latency = pending - core.now
                    core.issue_merged_load(pending)
                else:
                    issue_load(latency, is_miss=latency > hit_threshold)
                effective_latency_sum += latency
                demand_loads += 1
                if obs is not None:
                    obs_hist.observe(latency)
                # Hardware prefetches ride the L2 superqueue, not the
                # core's fill buffers; their arrival still gates later
                # demand loads of the line.
                for cand, target in hierarchy.hw_prefetch_candidates(line, level == "l1"):
                    if pf_completion.get(cand, 0.0) > core.now:
                        continue
                    pf_latency = prefetch_timing(cand, target)[0]
                    if pf_latency > hit_threshold:
                        pf_completion[cand] = core.now + pf_latency
        core.drain()
        batch_cycles.append(core.now - batch_start)
        pf_completion.clear()
        if obs is not None:
            obs.tracer.add_sim_span(
                f"batch[{b}]", "sim.embedding", batch_start,
                core.now - batch_start, tid=obs_tid,
            )
    return _finish(
        hierarchy, core, core_spec, batch_cycles, effective_latency_sum,
        demand_loads, obs, obs_start,
    )


# -- swapping the oracle in --------------------------------------------------


@contextmanager
def oracle_engine():
    """Run the package on the oracle inside the ``with`` block.

    Every binding inside ``repro`` of ``FastCache`` (the shared-L3
    construction points), of ``build_hierarchy`` and of the package's
    ``run_embedding_trace`` (``repro.core.schemes``,
    ``repro.engine.multicore`` and the experiments that call it) is
    pointed at the oracle's, and restored on exit.
    """
    swaps = {
        id(FastCache): Cache,
        id(package_hierarchy.build_hierarchy): build_hierarchy,
        id(embedding_exec.run_embedding_trace): run_embedding_trace,
    }
    saved = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in swaps:
                saved.append((module, attr, value))
                setattr(module, attr, swaps[id(value)])
    try:
        yield
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)
