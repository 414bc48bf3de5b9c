"""Trace-driven memory-hierarchy simulator.

This subpackage models the parts of a server CPU's memory system that the
paper's characterization and optimizations depend on:

* set-associative true-LRU caches, array-backed so the hierarchy walk can
  be vectorized (:mod:`repro.mem.fastcache`),
* hardware prefetchers — next-line, IP-stride, streamer
  (:mod:`repro.mem.prefetcher`),
* a DRAM latency / bandwidth-queueing model (:mod:`repro.mem.dram`),
* a three-level L1D / L2 / shared-L3 walk (:mod:`repro.mem.hierarchy`).

Latency and hit-rate numbers are *measured* from simulated accesses, playing
the role VTune plays in the paper's methodology.  Memory-level parallelism
is bounded by the core model's fill buffers (:mod:`repro.cpu.core`).
"""

from .cacheline import Address, line_of, lines_of_range
from .dram import DRAMModel
from .fastcache import FastCache
from .hierarchy import MemoryHierarchy, build_hierarchy, set_default_engine
from .prefetcher import (
    CompositePrefetcher,
    NextLinePrefetcher,
    NullPrefetcher,
    StreamerPrefetcher,
    StridePrefetcher,
)
from .stats import CacheStats, HierarchyStats

__all__ = [
    "Address",
    "CacheStats",
    "CompositePrefetcher",
    "DRAMModel",
    "FastCache",
    "HierarchyStats",
    "MemoryHierarchy",
    "NextLinePrefetcher",
    "NullPrefetcher",
    "StreamerPrefetcher",
    "StridePrefetcher",
    "build_hierarchy",
    "line_of",
    "lines_of_range",
    "set_default_engine",
]
