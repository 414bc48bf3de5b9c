"""Simulation-wide configuration.

:class:`SimConfig` bundles the handful of knobs that cut across subsystems
(random seed, default batch size, scale factor for shrinking paper-scale
models to tractable simulation sizes).  Everything subsystem-specific lives
next to that subsystem (``repro.cpu.platform`` for CPU specs,
``repro.model.configs`` for model architectures).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .errors import ConfigError

#: Batch size used throughout the paper's evaluation (Section 5).
PAPER_BATCH_SIZE = 64

#: Number of batches the paper averages latency over (Section 6).
PAPER_NUM_BATCHES = 120


@dataclass(frozen=True)
class SimConfig:
    """Global simulation knobs.

    Parameters
    ----------
    seed:
        Seed for every random stream derived from this config.
    batch_size:
        Samples per inference batch (the paper uses 64).
    num_batches:
        Batches per measurement (the paper averages over 120).
    scale:
        Linear shrink factor applied to model table counts / rows / lookups
        when building *simulation-scale* workloads.  ``1.0`` is paper scale;
        the default ``0.05`` keeps trace-driven experiments in the seconds
        range.  Analytic paths (reuse-distance model, breakdown) always run
        at paper scale regardless.
    mode:
        Hit-rate modeling mode for the analytic paths: ``"sim"`` (default)
        replays a synthesized index stream through the exact stack-distance
        counter; ``"analytic"`` predicts the same per-level hit rates in
        closed form from the calibrated Zipf law (Che's approximation, see
        ``repro.analysis.analytic``) without synthesizing a trace.  The two
        agree within the noise-floored bounds pinned by
        ``tests/test_analysis_analytic.py`` but are *not* bit-identical.
    """

    seed: int = 0xD1_12_31
    batch_size: int = PAPER_BATCH_SIZE
    num_batches: int = 8
    scale: float = 0.05
    mode: str = "sim"
    #: The one memory engine, named for callers written when there were two
    #: (see :func:`repro.mem.hierarchy.set_default_engine`); not a field.
    engine: ClassVar[str] = "fast"

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")
        if self.num_batches <= 0:
            raise ConfigError(f"num_batches must be positive, got {self.num_batches}")
        if not 0.0 < self.scale <= 1.0:
            raise ConfigError(f"scale must be in (0, 1], got {self.scale}")
        if self.mode not in ("sim", "analytic"):
            raise ConfigError(
                f"mode must be 'sim' or 'analytic', got {self.mode!r}"
            )

    def rng(self, stream: str = "default") -> np.random.Generator:
        """Return a deterministic generator for a named random stream.

        Distinct ``stream`` names yield statistically independent streams
        while remaining reproducible for a fixed :attr:`seed`.
        """
        ss = np.random.SeedSequence([self.seed, _stream_key(stream)])
        return np.random.default_rng(ss)

    def with_(self, **changes: object) -> "SimConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)  # type: ignore[arg-type]


def _stream_key(stream: str) -> int:
    """Stable 63-bit key for a stream name (Python's hash() is salted)."""
    key = 0
    for ch in stream:
        key = (key * 131 + ord(ch)) % (2**63 - 1)
    return key


DEFAULT_CONFIG = SimConfig()


@dataclass
class ExperimentScale:
    """Per-experiment overrides of the default simulation scale.

    Experiments that simulate every cache-line access use smaller traces
    than experiments that only run the analytic reuse model.  This class
    records the choice so it can be surfaced in reports.
    """

    scale: float = 0.05
    num_batches: int = 8
    batch_size: int = PAPER_BATCH_SIZE
    notes: str = ""

    def apply(self, config: SimConfig) -> SimConfig:
        """Produce a :class:`SimConfig` with this experiment's scale."""
        return config.with_(
            scale=self.scale,
            num_batches=self.num_batches,
            batch_size=self.batch_size,
        )
