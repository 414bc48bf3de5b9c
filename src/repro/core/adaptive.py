"""Adaptive prefetch-distance controller (extension beyond the paper).

The paper tunes the prefetch distance offline per platform (Section 6.4).
This module automates that tuning *online*: between batches, the controller
inspects the engine's measured prefetch outcome — the late-prefetch stall
share and the unused-prefetch eviction rate — and nudges the distance:

* many late prefetches (demand loads still waiting on in-flight fetches)
  -> the look-ahead is too short -> increase distance;
* many prefetched lines evicted unused -> the look-ahead overruns the
  L1D -> decrease distance.

This is the natural production deployment of the paper's design: one knob,
self-tuned, robust to dataset drift between hotness regimes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..cpu.platform import CPUSpec
from ..engine.embedding_exec import PrefetchPlan, run_embedding_trace
from ..errors import ConfigError
from ..mem.hierarchy import build_hierarchy
from ..trace.dataset import EmbeddingTrace
from ..trace.stream import AddressMap
from .swpf import SWPrefetchConfig

__all__ = ["AdaptiveController", "AdaptiveRunResult", "run_adaptive_prefetch"]


@dataclass
class AdaptiveController:
    """Hill-climbing controller over the prefetch distance.

    Decisions use two ratios measured per batch:

    * ``late_ratio`` — merged-load stall cycles / total cycles (the cost of
      too-short distances),
    * ``waste_ratio`` — prefetched-but-evicted-unused lines / prefetch
      fills (the cost of too-long distances).
    """

    distance: int = 4
    min_distance: int = 1
    max_distance: int = 32
    late_threshold: float = 0.05
    waste_threshold: float = 0.10
    history: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.min_distance <= self.distance <= self.max_distance:
            raise ConfigError("distance outside [min, max]")
        if self.min_distance <= 0:
            raise ConfigError("min_distance must be positive")

    def update(self, late_ratio: float, waste_ratio: float) -> int:
        """Observe one batch's outcome; return the next distance."""
        if late_ratio < 0 or waste_ratio < 0:
            raise ConfigError("ratios must be non-negative")
        self.history.append(self.distance)
        if waste_ratio > self.waste_threshold and self.distance > self.min_distance:
            self.distance = max(self.min_distance, self.distance // 2)
        elif late_ratio > self.late_threshold and self.distance < self.max_distance:
            self.distance = min(self.max_distance, self.distance * 2)
        return self.distance


@dataclass
class AdaptiveRunResult:
    """Outcome of an adaptive run over a trace."""

    total_cycles: float
    distance_trajectory: List[int]
    final_distance: int
    per_batch_cycles: List[float]


def run_adaptive_prefetch(
    trace: EmbeddingTrace,
    amap: AddressMap,
    platform: CPUSpec,
    base: SWPrefetchConfig = SWPrefetchConfig(),
    controller: Optional[AdaptiveController] = None,
) -> AdaptiveRunResult:
    """Execute a trace batch by batch, re-tuning distance between batches.

    The cache hierarchy persists across batches (warm state), so the
    controller sees realistic steady-state feedback.
    """
    controller = controller or AdaptiveController(distance=base.distance)
    hierarchy = build_hierarchy(platform.hierarchy)
    total = 0.0
    per_batch: List[float] = []
    trajectory: List[int] = []
    prior_unused = 0
    prior_fills = 0
    for b in range(trace.num_batches):
        trajectory.append(controller.distance)
        plan = PrefetchPlan(
            distance=controller.distance,
            amount_lines=base.amount_lines,
            target_level=base.target_level,
        )
        result = run_embedding_trace(
            trace, amap, platform.core, hierarchy, plan=plan, batch_indices=[b]
        )
        total += result.total_cycles
        per_batch.append(result.total_cycles)
        # Late prefetches show up as merged-load waits (mshr stalls here
        # are issue-side; use the effective latency excess over L1 hits).
        late_ratio = result.mshr_stall_cycles / max(result.total_cycles, 1e-9)
        l1 = hierarchy.l1.stats
        unused = l1.prefetch_evicted_unused - prior_unused
        fills = l1.prefetch_fills - prior_fills
        prior_unused, prior_fills = l1.prefetch_evicted_unused, l1.prefetch_fills
        waste_ratio = unused / fills if fills else 0.0
        controller.update(late_ratio, waste_ratio)
    return AdaptiveRunResult(
        total_cycles=total,
        distance_trajectory=trajectory,
        final_distance=controller.distance,
        per_batch_cycles=per_batch,
    )
