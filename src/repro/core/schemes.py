"""The six evaluated design points (Section 6's legend).

===========  ==============================================================
name         meaning
===========  ==============================================================
hw_pf_off    hardware prefetching disabled (msr-tools in the artifact)
baseline     stock execution, hardware prefetching on
sw_pf        + application-initiated software prefetching (Section 4.2)
dp_ht        naive hyperthreading: two inferences per physical core
mp_ht        model-parallel hyperthreading: embedding ∥ bottom MLP
integrated   sw_pf + mp_ht with their synergy (Section 4.4)
===========  ==============================================================

:func:`evaluate_scheme` runs one design point for one (model, trace,
platform, core-count) combination and returns a :class:`SchemeResult`;
:func:`evaluate_all_schemes` produces the full Fig 12/13/14 panel.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, Optional, Tuple

from ..cpu.platform import CPUSpec
from ..cpu.smt import SMTModel
from ..engine.embedding_exec import run_embedding_trace
from ..engine.inference import InferenceTiming, StageTimes, time_inference_sequential
from ..engine.multicore import run_embedding_multicore
from ..errors import UnknownSchemeError
from ..mem.hierarchy import build_hierarchy
from ..model.configs import ModelConfig
from ..trace.dataset import EmbeddingTrace
from ..trace.stream import AddressMap
from ..units import cycles_to_ms
from .hyperthread import (
    dp_ht_batch_cycles,
    halved_smt_hierarchy_config,
    mp_ht_batch_cycles,
)
from .integrated import integrated_batch_cycles
from .swpf import PAPER_SWPF, SWPrefetchConfig

__all__ = ["SCHEME_NAMES", "SchemeResult", "evaluate_scheme", "evaluate_all_schemes"]

#: Design points in the paper's presentation order.
SCHEME_NAMES: Tuple[str, ...] = (
    "hw_pf_off",
    "baseline",
    "sw_pf",
    "dp_ht",
    "mp_ht",
    "integrated",
)

#: MLP/interaction slowdown when hardware prefetching is disabled — the
#: dense stages stream weights and lose their prefetcher coverage entirely
#: ("hardware prefetching is useful in the compute-intensive stages as they
#: bring regular access patterns", Section 6.2.1).
HW_PF_OFF_DENSE_SLOWDOWN = 1.4


@dataclass(frozen=True)
class SchemeResult:
    """Measured outcome of one design point."""

    scheme: str
    model: str
    num_cores: int
    embedding_cycles: float
    batch_cycles: float
    frequency_hz: float
    l1_hit_rate: float
    avg_load_latency: float
    emb_utilization: float
    emb_stall_fraction: float
    stages: Optional[StageTimes] = None

    @property
    def batch_ms(self) -> float:
        """End-to-end batch latency in milliseconds."""
        return cycles_to_ms(self.batch_cycles, self.frequency_hz)

    @property
    def embedding_ms(self) -> float:
        """Embedding-only batch latency in milliseconds (Table 4's unit)."""
        return cycles_to_ms(self.embedding_cycles, self.frequency_hz)

    def speedup_over(self, baseline: "SchemeResult") -> float:
        """End-to-end speedup relative to another result."""
        return baseline.batch_cycles / self.batch_cycles

    def embedding_speedup_over(self, baseline: "SchemeResult") -> float:
        """Embedding-only speedup relative to another result."""
        return baseline.embedding_cycles / self.embedding_cycles


@dataclass(frozen=True)
class _EmbStage:
    """Embedding-stage metrics in the shape the inference composer wants."""

    mean_batch_cycles: float
    utilization: float
    stall_fraction: float


def _run_embedding(
    model: ModelConfig,
    trace: EmbeddingTrace,
    amap: AddressMap,
    platform: CPUSpec,
    num_cores: int,
    hw_prefetch: bool,
    plan,
    halved_caches: bool,
    detailed_cores: int,
) -> "tuple[_EmbStage, float, float]":
    """Run the embedding stage; return (stage metrics, l1 hit, latency)."""
    hier_config = platform.hierarchy
    if halved_caches:
        hier_config = halved_smt_hierarchy_config(hier_config)
    if num_cores <= 1:
        hierarchy = build_hierarchy(hier_config, hw_prefetch=hw_prefetch)
        result = run_embedding_trace(trace, amap, platform.core, hierarchy, plan=plan)
        stage = _EmbStage(
            result.mean_batch_cycles,
            result.utilization,
            min(1.0, result.stall_fraction),
        )
        return stage, result.l1_hit_rate, result.avg_load_latency
    mc = run_embedding_multicore(
        trace,
        amap,
        platform,
        num_cores,
        plan=plan,
        detailed_cores=detailed_cores,
        hw_prefetch=hw_prefetch,
        hier_override=hier_config if halved_caches else None,
    )
    stage = _EmbStage(
        mc.mean_batch_cycles, mc.emb_utilization, min(1.0, mc.emb_stall_fraction)
    )
    return stage, mc.l1_hit_rate, mc.avg_load_latency


def _walk_args(
    scheme: str,
    platform: CPUSpec,
    num_cores: int,
    swpf: SWPrefetchConfig,
    detailed_cores: int,
) -> tuple:
    """The arguments of ``scheme``'s embedding walk after (model, trace,
    amap): everything the walk depends on, so equal tuples mean equal
    walks.  The HT schemes differ from their base schemes only in the
    analytic overlap applied after the walk."""
    if scheme not in SCHEME_NAMES:
        raise UnknownSchemeError(
            f"unknown scheme {scheme!r}; expected one of {SCHEME_NAMES}"
        )
    return (
        platform,
        num_cores,
        scheme != "hw_pf_off",
        swpf.plan() if scheme in ("sw_pf", "integrated") else None,
        scheme == "dp_ht",
        detailed_cores,
    )


def _compose(
    scheme: str,
    model: ModelConfig,
    batch_size: int,
    platform: CPUSpec,
    num_cores: int,
    smt: Optional[SMTModel],
    walk: "tuple[_EmbStage, float, float]",
) -> SchemeResult:
    """Turn one embedding walk into ``scheme``'s end-to-end result."""
    smt = smt or SMTModel()
    walk_stage, l1_hit, load_latency = walk
    # Project embedding cycles from the simulated (scaled) lookup count to
    # paper scale so stage ratios — and every scheme that depends on them
    # (MP-HT overlap, Fig 1 shares, Table 4 ms) — match the paper's shape.
    # A copy, because schemes may share one walk.
    stage = replace(
        walk_stage,
        mean_batch_cycles=walk_stage.mean_batch_cycles * model.paper_scale_ratio(),
    )
    timing = time_inference_sequential(model, stage, platform.core, batch_size)

    if scheme == "hw_pf_off":
        stages = StageTimes(
            bottom_mlp=timing.stages.bottom_mlp * HW_PF_OFF_DENSE_SLOWDOWN,
            embedding=timing.stages.embedding,
            interaction=timing.stages.interaction * HW_PF_OFF_DENSE_SLOWDOWN,
            top_mlp=timing.stages.top_mlp * HW_PF_OFF_DENSE_SLOWDOWN,
        )
        batch_cycles = stages.total
    elif scheme in ("baseline", "sw_pf"):
        stages = timing.stages
        batch_cycles = stages.total
    elif scheme == "dp_ht":
        stages = timing.stages
        batch_cycles = dp_ht_batch_cycles(timing, smt=smt)
    elif scheme == "mp_ht":
        stages = timing.stages
        batch_cycles = mp_ht_batch_cycles(timing, smt=smt)
    else:  # integrated
        stages = timing.stages
        batch_cycles = integrated_batch_cycles(timing, smt=smt)

    return SchemeResult(
        scheme=scheme,
        model=model.name,
        num_cores=num_cores,
        embedding_cycles=stage.mean_batch_cycles,
        batch_cycles=batch_cycles,
        frequency_hz=platform.frequency_hz,
        l1_hit_rate=l1_hit,
        avg_load_latency=load_latency,
        emb_utilization=stage.utilization,
        emb_stall_fraction=stage.stall_fraction,
        stages=stages,
    )


def evaluate_scheme(
    scheme: str,
    model: ModelConfig,
    trace: EmbeddingTrace,
    amap: AddressMap,
    platform: CPUSpec,
    num_cores: int = 1,
    swpf: SWPrefetchConfig = PAPER_SWPF,
    smt: Optional[SMTModel] = None,
    detailed_cores: int = 2,
) -> SchemeResult:
    """Evaluate one design point.

    ``trace`` and ``amap`` must describe the same (scaled) ``model`` —
    sharing them across schemes keeps the comparison paired.
    """
    return evaluate_all_schemes(
        model, trace, amap, platform, num_cores=num_cores, schemes=(scheme,),
        swpf=swpf, smt=smt, detailed_cores=detailed_cores,
    )[scheme]


def evaluate_all_schemes(
    model: ModelConfig,
    trace: EmbeddingTrace,
    amap: AddressMap,
    platform: CPUSpec,
    num_cores: int = 1,
    schemes: Iterable[str] = SCHEME_NAMES,
    swpf: SWPrefetchConfig = PAPER_SWPF,
    smt: Optional[SMTModel] = None,
    detailed_cores: int = 2,
) -> Dict[str, SchemeResult]:
    """Evaluate several design points on one shared workload.

    Each distinct embedding walk runs once: MP-HT reuses Baseline's walk
    and Integrated reuses SW-PF's, so the results equal per-scheme
    :func:`evaluate_scheme` calls field for field.
    """
    walks: Dict[tuple, "tuple[_EmbStage, float, float]"] = {}
    results: Dict[str, SchemeResult] = {}
    for scheme in schemes:
        args = _walk_args(scheme, platform, num_cores, swpf, detailed_cores)
        if args not in walks:
            walks[args] = _run_embedding(model, trace, amap, *args)
        results[scheme] = _compose(
            scheme, model, trace.batch_size, platform, num_cores, smt,
            walks[args],
        )
    return results
