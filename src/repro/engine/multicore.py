"""Multi-core execution: shared LLC and DRAM bandwidth contention.

The paper maps one batch per physical core and uses every core of a socket
(Section 6).  Simulating 24+ full cache hierarchies access-by-access is
wasteful, so this engine uses *detailed core sampling*:

* ``detailed_cores`` hierarchies are simulated cache-line by cache-line,
  sharing one L3 slice (scaled to their fair share of the socket's LLC)
  and one DRAM channel — capturing the constructive/destructive sharing
  classes of Section 3.1;
* batches are interleaved round-robin across the detailed cores so the
  shared L3 sees concurrent working sets, not sequential ones;
* aggregate bandwidth demand is extrapolated from the detailed cores to
  the full core count, and the DRAM model's queueing factor is fixed-point
  iterated so every simulated access sees the loaded latency.

Scaling the shared L3 to ``detailed/total`` of its size keeps per-core LLC
pressure faithful; constructive sharing across more than ``detailed_cores``
cores is under-represented (documented divergence in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from ..cpu.platform import CPUSpec
from ..errors import ConfigError
from ..mem.dram import DRAMConfig, DRAMModel
from ..mem.fastcache import FastCache
from ..mem.hierarchy import HierarchyConfig, MemoryHierarchy, build_hierarchy
from ..trace.dataset import EmbeddingTrace
from ..trace.stream import AddressMap
from ..units import CACHE_LINE_BYTES
from .embedding_exec import EmbeddingRunResult, PrefetchPlan, run_embedding_trace
from .kernels import KernelCostModel

__all__ = ["MulticoreResult", "run_embedding_multicore", "scaled_shared_l3_config"]

#: Detailed hierarchies simulated regardless of the modeled core count.
DEFAULT_DETAILED_CORES = 4


@dataclass
class MulticoreResult:
    """Outcome of a multi-core embedding run."""

    num_cores: int
    detailed_cores: int
    mean_batch_cycles: float
    per_core_cycles: List[float]
    utilization: float
    achieved_bandwidth_bytes_per_cycle: float
    l1_hit_rate: float
    avg_load_latency: float
    dram_fraction: float
    emb_utilization: float
    emb_stall_fraction: float

    def bandwidth_gb_s(self, frequency_hz: float) -> float:
        """Aggregate achieved DRAM bandwidth in GB/s."""
        return self.achieved_bandwidth_bytes_per_cycle * frequency_hz / 1e9


def scaled_shared_l3_config(
    base: HierarchyConfig, detailed: int, total_cores: int
) -> HierarchyConfig:
    """Shrink the shared L3 to the detailed cores' fair share of the LLC."""
    if detailed <= 0 or total_cores <= 0:
        raise ConfigError("core counts must be positive")
    if detailed >= total_cores:
        return base
    target = base.l3_size * detailed // total_cores
    way_bytes = base.l3_ways * CACHE_LINE_BYTES
    sets = max(1, target // way_bytes)
    scaled = sets * way_bytes
    minimum = 2 * base.l2_size
    while scaled <= minimum:
        sets *= 2
        scaled = sets * way_bytes
    return replace(base, l3_size=scaled)


def _equilibrium_utilization(
    unloaded_demand_ratio: float, memory_fraction: float, dram: DRAMConfig
) -> float:
    """Channel load where offered traffic equals what the cores sustain.

    With unloaded demand ``D0`` (as a fraction of peak), loading the
    channel to ``u`` inflates memory-bound time by
    ``s(u) = 1 + memory_fraction * (qf(u) - 1)``, throttling demand to
    ``D0 / s(u)``.  Equilibrium: ``u = D0 / s(u)`` — monotone, solved by
    bisection.  Demand below peak still pays its mild queueing.
    """
    if unloaded_demand_ratio <= 0:
        return 0.0
    probe = DRAMModel(dram)

    def scaled_demand(u: float) -> float:
        probe.set_utilization(u)
        slowdown = 1.0 + memory_fraction * (probe.queueing_factor() - 1.0)
        return unloaded_demand_ratio / slowdown

    lo, hi = 0.0, 0.95
    if scaled_demand(hi) >= hi:
        return hi
    for _ in range(40):
        mid = (lo + hi) / 2
        if scaled_demand(mid) >= mid:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _combine(results: List[EmbeddingRunResult]) -> EmbeddingRunResult:
    """Merge the per-batch results of one core into a single record."""
    total = sum(r.total_cycles for r in results)
    loads = sum(r.loads for r in results)
    instr = sum(r.instr_count for r in results)
    weight = total or 1.0
    return EmbeddingRunResult(
        total_cycles=total,
        batch_cycles=[c for r in results for c in r.batch_cycles],
        loads=loads,
        effective_latency_sum=sum(r.effective_latency_sum for r in results),
        instr_count=instr,
        utilization=sum(r.utilization * r.total_cycles for r in results) / weight,
        stall_fraction=sum(r.stall_fraction * r.total_cycles for r in results) / weight,
        window_stall_cycles=sum(r.window_stall_cycles for r in results),
        mshr_stall_cycles=sum(r.mshr_stall_cycles for r in results),
        l1_hit_rate=results[-1].l1_hit_rate,
        l2_hit_rate=results[-1].l2_hit_rate,
        l3_hit_rate=results[-1].l3_hit_rate,
        dram_fraction=results[-1].dram_fraction,
        dram_bytes=results[-1].dram_bytes,
        prefetches_issued=sum(r.prefetches_issued for r in results),
        level_fractions=results[-1].level_fractions,
        issue_cycles=sum(r.issue_cycles for r in results),
    )


def run_embedding_multicore(
    trace: EmbeddingTrace,
    amap: AddressMap,
    platform: CPUSpec,
    num_cores: int,
    plan: Optional[PrefetchPlan] = None,
    detailed_cores: int = DEFAULT_DETAILED_CORES,
    bandwidth_iterations: int = 2,
    hw_prefetch: bool = True,
    cost: KernelCostModel = KernelCostModel(),
    hier_override: Optional[HierarchyConfig] = None,
) -> MulticoreResult:
    """Run the embedding stage on ``num_cores`` cores of ``platform``.

    ``hier_override`` substitutes the per-core hierarchy geometry (e.g. the
    halved SMT caches of the DP-HT scheme) before LLC-share scaling.
    """
    if num_cores <= 0:
        raise ConfigError("num_cores must be positive")
    if bandwidth_iterations <= 0:
        raise ConfigError("need at least one bandwidth iteration")
    detailed = min(num_cores, detailed_cores)
    base_config = hier_override if hier_override is not None else platform.hierarchy
    hier_config = scaled_shared_l3_config(base_config, detailed, num_cores)
    sockets_used = -(-num_cores // platform.cores_per_socket)
    peak_bw = platform.peak_dram_bw_bytes_per_cycle * min(
        sockets_used, platform.sockets
    )

    utilization = 0.0
    final_cores: List[EmbeddingRunResult] = []
    achieved_bw = 0.0
    for iteration in range(bandwidth_iterations):
        shared_l3 = FastCache("l3", hier_config.l3_size, hier_config.l3_ways)
        shared_dram = DRAMModel(hier_config.dram)
        shared_dram.set_utilization(utilization)
        hierarchies: List[MemoryHierarchy] = [
            build_hierarchy(
                hier_config,
                shared_l3=shared_l3,
                shared_dram=shared_dram,
                hw_prefetch=hw_prefetch,
            )
            for _ in range(detailed)
        ]
        per_core: List[List[EmbeddingRunResult]] = [[] for _ in range(detailed)]
        # Round-robin batch interleaving so detailed cores contend in the
        # shared L3 within the same "round" of execution.
        rounds = -(-trace.num_batches // detailed)
        for r in range(rounds):
            for c in range(detailed):
                b = r * detailed + c
                if b >= trace.num_batches:
                    break
                per_core[c].append(
                    run_embedding_trace(
                        trace,
                        amap,
                        platform.core,
                        hierarchies[c],
                        plan=plan,
                        cost=cost,
                        batch_indices=[b],
                    )
                )
        final_cores = [_combine(rs) for rs in per_core if rs]
        mean_cycles = sum(r.total_cycles for r in final_cores) / len(final_cores)
        detailed_bw = shared_dram.bytes_transferred / mean_cycles if mean_cycles else 0.0
        demand_bw = detailed_bw * num_cores / detailed
        achieved_bw = min(demand_bw, peak_bw)
        if iteration == 0 and bandwidth_iterations > 1:
            # Solve for the self-consistent channel load before the final
            # pass: naively feeding demand/peak back explodes at saturation
            # (rho -> cap -> huge inflation -> demand collapses -> repeat).
            memory_fraction = min(
                0.95,
                sum(r.stall_fraction * r.total_cycles for r in final_cores)
                / max(sum(r.total_cycles for r in final_cores), 1e-9),
            )
            utilization = _equilibrium_utilization(
                demand_bw / peak_bw if peak_bw > 0 else 0.0,
                memory_fraction,
                hier_config.dram,
            )
        else:
            utilization = min(demand_bw / peak_bw, 1.0) if peak_bw > 0 else 0.0

    loads = sum(r.loads for r in final_cores) or 1
    batch_counts = sum(len(r.batch_cycles) for r in final_cores) or 1
    total_cycles = sum(r.total_cycles for r in final_cores)
    return MulticoreResult(
        num_cores=num_cores,
        detailed_cores=detailed,
        mean_batch_cycles=sum(
            c for r in final_cores for c in r.batch_cycles
        ) / batch_counts,
        per_core_cycles=[r.total_cycles for r in final_cores],
        utilization=utilization,
        achieved_bandwidth_bytes_per_cycle=achieved_bw,
        l1_hit_rate=sum(r.l1_hit_rate * r.loads for r in final_cores) / loads,
        avg_load_latency=sum(r.effective_latency_sum for r in final_cores) / loads,
        dram_fraction=sum(r.dram_fraction * r.loads for r in final_cores) / loads,
        emb_utilization=sum(r.utilization * r.total_cycles for r in final_cores)
        / (total_cycles or 1.0),
        emb_stall_fraction=sum(r.stall_fraction * r.total_cycles for r in final_cores)
        / (total_cycles or 1.0),
    )
