"""Experiment registry: id -> runner."""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..config import SimConfig
from ..errors import ConfigError
from ..obs import hooks as obs_hooks
from . import (
    cluster_resilience,
    critpath_observatory,
    hotness_sweep,
    noisy_neighbor,
    resilience,
    slo_observatory,
    synergy,
    fig01_breakdown,
    fig04_dataset_sweep,
    fig05_access_counts,
    fig07_reuse,
    fig08_multicore,
    fig10_prefetch_design,
    fig12_embedding_speedup,
    fig13_end_to_end,
    fig14_mixed_model,
    fig15_l1_characterization,
    fig16_platforms,
    fig17_tail_latency,
    table1_sla,
    table2_models,
    table3_platform,
    table4_batch_times,
)
from .base import ExperimentReport  # noqa: E402  (import order mirrors paper)

__all__ = ["EXPERIMENT_IDS", "get_experiment", "list_experiments", "run_experiment"]

_MODULES = (
    fig01_breakdown,
    fig04_dataset_sweep,
    fig05_access_counts,
    fig07_reuse,
    fig08_multicore,
    fig10_prefetch_design,
    fig12_embedding_speedup,
    fig13_end_to_end,
    fig14_mixed_model,
    fig15_l1_characterization,
    fig16_platforms,
    fig17_tail_latency,
    table1_sla,
    table2_models,
    table3_platform,
    table4_batch_times,
    synergy,
    hotness_sweep,
    resilience,
    cluster_resilience,
    slo_observatory,
    noisy_neighbor,
    critpath_observatory,
)

_REGISTRY: Dict[str, Callable[..., ExperimentReport]] = {
    module.EXPERIMENT_ID: module.run for module in _MODULES
}

#: All experiment ids in paper order.
EXPERIMENT_IDS: Tuple[str, ...] = tuple(_REGISTRY)


def get_experiment(experiment_id: str) -> Callable[..., ExperimentReport]:
    """The runner callable for one experiment id."""
    try:
        return _REGISTRY[experiment_id.lower()]
    except KeyError:
        raise ConfigError(
            f"unknown experiment {experiment_id!r}; available: {sorted(_REGISTRY)}"
        ) from None


def list_experiments() -> Dict[str, str]:
    """id -> title for every registered experiment."""
    return {module.EXPERIMENT_ID: module.TITLE for module in _MODULES}


def run_experiment(
    experiment_id: str, config: Optional[SimConfig] = None, **overrides: object
) -> ExperimentReport:
    """Run one experiment by id."""
    runner = get_experiment(experiment_id)
    cfg = config if config is not None else SimConfig()
    obs = obs_hooks.active()
    if obs is not None:
        with obs.tracer.span(f"experiment:{experiment_id.lower()}", "experiment"):
            return runner(config=cfg, **overrides)
    return runner(config=cfg, **overrides)
