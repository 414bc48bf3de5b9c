"""Inter-core sharing study (Section 3.1's fourth reuse class).

The paper distinguishes two multi-core regimes:

* **Constructive sharing** — cores working on the *same* embedding tables:
  one core's cold-miss fill can serve another core's later access from the
  shared LLC.
* **Destructive sharing** — cores working on *different* tables: each
  core's working set evicts the other's from every shared buffer.

This module measures both against a solo-core reference with the real
simulator: two per-core hierarchies wired to one shared L3 and DRAM
channel, fed either the same trace (same tables, different batches) or
address-disjoint clones of it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import SimConfig
from ..cpu.platform import CPUSpec
from ..engine.embedding_exec import EmbeddingRunResult, run_embedding_trace
from ..errors import ConfigError
from ..mem.dram import DRAMModel
from ..mem.fastcache import FastCache
from ..mem.hierarchy import build_hierarchy
from ..trace.dataset import EmbeddingTrace
from ..trace.stream import AddressMap

__all__ = ["InterferenceReport", "intercore_sharing_study"]


@dataclass(frozen=True)
class InterferenceReport:
    """Solo vs constructive vs destructive sharing, measured."""

    solo_cycles: float
    constructive_cycles: float
    destructive_cycles: float
    solo_l3_hit_rate: float
    constructive_l3_hit_rate: float
    destructive_l3_hit_rate: float

    @property
    def constructive_slowdown(self) -> float:
        """Per-core slowdown when sharing the LLC over the same tables."""
        return self.constructive_cycles / self.solo_cycles

    @property
    def destructive_slowdown(self) -> float:
        """Per-core slowdown when cores thrash each other's tables."""
        return self.destructive_cycles / self.solo_cycles

    @property
    def sharing_benefit(self) -> float:
        """How much cheaper constructive sharing is than destructive (>1)."""
        return self.destructive_cycles / self.constructive_cycles


def _two_core_run(
    trace: EmbeddingTrace,
    amaps: "tuple[AddressMap, AddressMap]",
    platform: CPUSpec,
) -> "tuple[EmbeddingRunResult, FastCache]":
    """Run two cores batch-interleaved on a shared L3; return core 0's view."""
    config = platform.hierarchy
    shared_l3 = FastCache("l3", config.l3_size, config.l3_ways)
    shared_dram = DRAMModel(config.dram)
    cores = [
        build_hierarchy(config, shared_l3=shared_l3, shared_dram=shared_dram)
        for _ in range(2)
    ]
    results: "list[list[EmbeddingRunResult]]" = [[], []]
    for b in range(trace.num_batches):
        for c in range(2):
            results[c].append(
                run_embedding_trace(
                    trace, amaps[c], platform.core, cores[c], batch_indices=[b]
                )
            )
    total = sum(r.total_cycles for r in results[0])
    merged = results[0][-1]
    combined = EmbeddingRunResult(
        total_cycles=total,
        batch_cycles=[c for r in results[0] for c in r.batch_cycles],
        loads=sum(r.loads for r in results[0]),
        effective_latency_sum=sum(r.effective_latency_sum for r in results[0]),
        instr_count=sum(r.instr_count for r in results[0]),
        utilization=merged.utilization,
        stall_fraction=merged.stall_fraction,
        window_stall_cycles=sum(r.window_stall_cycles for r in results[0]),
        mshr_stall_cycles=sum(r.mshr_stall_cycles for r in results[0]),
        l1_hit_rate=merged.l1_hit_rate,
        l2_hit_rate=merged.l2_hit_rate,
        l3_hit_rate=merged.l3_hit_rate,
        dram_fraction=merged.dram_fraction,
        dram_bytes=merged.dram_bytes,
        prefetches_issued=sum(r.prefetches_issued for r in results[0]),
        level_fractions=merged.level_fractions,
    )
    return combined, shared_l3


def intercore_sharing_study(
    trace: EmbeddingTrace,
    amap: AddressMap,
    platform: CPUSpec,
    config: "SimConfig | None" = None,
) -> InterferenceReport:
    """Measure the three regimes on one workload.

    Solo: one core, private everything.  Constructive: two cores, same
    address map (same physical tables).  Destructive: two cores, the
    second relocated to a disjoint address range (different tables of the
    same shape).
    """
    if trace.num_batches < 2:
        raise ConfigError("need at least 2 batches to interleave across cores")
    # Solo reference.
    solo_h = build_hierarchy(platform.hierarchy)
    solo = run_embedding_trace(trace, amap, platform.core, solo_h)

    # Constructive: both cores gather from the same tables.
    constructive, l3_cons = _two_core_run(trace, (amap, amap), platform)

    # Destructive: core 1's tables live elsewhere in memory.
    disjoint = AddressMap(
        list(amap.rows_per_table),
        amap.embedding_dim,
        base_address=amap.table_bases[-1]
        + amap.rows_per_table[-1] * amap.row_bytes
        + (1 << 30),
    )
    destructive, l3_dest = _two_core_run(trace, (amap, disjoint), platform)

    return InterferenceReport(
        solo_cycles=solo.total_cycles,
        constructive_cycles=constructive.total_cycles,
        destructive_cycles=destructive.total_cycles,
        solo_l3_hit_rate=solo_h.l3.stats.hit_rate,
        constructive_l3_hit_rate=l3_cons.stats.hit_rate,
        destructive_l3_hit_rate=l3_dest.stats.hit_rate,
    )
