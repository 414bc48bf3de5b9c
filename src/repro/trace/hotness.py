"""Hotness profiles and Zipf calibration.

Section 5 of the paper: "the unique accesses in Low, Medium, & High are
60%, 24%, & 3% respectively, which matches Meta's input traces".  Unique
accesses = fraction of distinct item ids among all lookups of a table.

We model the per-row popularity as a finite Zipf distribution
``p_r ∝ 1 / rank^alpha`` and calibrate ``alpha`` so the *expected* unique
fraction at the workload's access count matches the target.  Uniform
sampling (alpha=0) of R rows with N=R draws already leaves only
``1 - e^{-1} ≈ 63%`` unique, which is why Low-hot is nearly uniform while
High-hot needs a steep exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict

import numpy as np

from ..errors import ConfigError

__all__ = [
    "HotnessProfile",
    "HOTNESS_PROFILES",
    "zipf_probabilities",
    "expected_unique_fraction",
    "fit_zipf_alpha",
]


@dataclass(frozen=True)
class HotnessProfile:
    """A named hotness level with its published unique-access target."""

    name: str
    unique_fraction: float
    #: Spread of per-table alpha jitter (hotness varies across tables).
    table_jitter: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 < self.unique_fraction <= 1.0:
            raise ConfigError(
                f"unique fraction must be in (0,1], got {self.unique_fraction}"
            )


#: The paper's three production-trace groups (Section 5).
HOTNESS_PROFILES: Dict[str, HotnessProfile] = {
    "high": HotnessProfile("high", unique_fraction=0.03),
    "medium": HotnessProfile("medium", unique_fraction=0.24),
    "low": HotnessProfile("low", unique_fraction=0.60),
}


def _ranks(rows: int) -> np.ndarray:
    """``1..rows`` as float64."""
    if rows <= 0:
        raise ConfigError(f"rows must be positive, got {rows}")
    return np.arange(1, rows + 1, dtype=np.float64)


def _zipf_weights(ranks: np.ndarray, alpha: float) -> np.ndarray:
    """:func:`zipf_probabilities` over the given ``1..rows`` ranks."""
    if alpha < 0:
        raise ConfigError(f"alpha must be non-negative, got {alpha}")
    # ``**`` (not ``np.power``) keeps numpy's scalar-exponent fast paths,
    # so the weights stay bit-identical at alpha = 0, 0.5, 1 and 2.
    weights = ranks ** -alpha
    weights /= weights.sum()
    return weights


def zipf_probabilities(rows: int, alpha: float) -> np.ndarray:
    """Normalized finite-Zipf probabilities over ``rows`` ranks.

    ``alpha = 0`` is uniform.  Rank 0 is the hottest row.  The result is a
    fresh array the caller may overwrite.
    """
    return _zipf_weights(_ranks(rows), alpha)


def expected_unique_fraction(rows: int, samples: int, alpha: float) -> float:
    """Expected fraction of distinct rows after ``samples`` Zipf draws.

    ``E[unique] = Σ_r (1 - (1 - p_r)^N`` evaluated in log space for
    numerical stability with tiny tail probabilities.
    """
    if samples <= 0:
        raise ConfigError(f"samples must be positive, got {samples}")
    return _expected_unique(_ranks(rows), samples, alpha)


def _expected_unique(ranks: np.ndarray, samples: int, alpha: float) -> float:
    """:func:`expected_unique_fraction` over the given ranks.

    Every pass runs in the one probability buffer, with the ufuncs of
    ``sum(1 - exp(samples * log1p(-minimum(p, 1 - 1e-15))))`` in that order.
    """
    buf = _zipf_weights(ranks, alpha)
    np.minimum(buf, 1.0 - 1e-15, out=buf)
    np.negative(buf, out=buf)
    np.log1p(buf, out=buf)
    np.multiply(samples, buf, out=buf)
    np.exp(buf, out=buf)
    np.subtract(1.0, buf, out=buf)
    expected_unique = float(np.sum(buf))
    # The paper's metric: distinct ids over total lookups.  Always bounded
    # by min(rows, samples) / samples <= 1.
    return expected_unique / samples


@lru_cache(maxsize=256)
def fit_zipf_alpha(
    rows: int,
    samples: int,
    target_unique_fraction: float,
    tolerance: float = 1e-3,
    max_alpha: float = 8.0,
) -> float:
    """Find alpha such that the expected unique fraction hits the target.

    Unique fraction decreases monotonically in alpha, so a bisection over
    ``[0, max_alpha]`` suffices.  If even ``alpha = 0`` (uniform) leaves
    fewer uniques than the target — which happens when ``samples >> rows``
    — the uniform exponent 0 is returned as the closest achievable point.

    Deterministic in its arguments (a pure 60-step bisection over closed
    forms), so results are memoized — every workload build re-fits the
    same handful of (rows, samples, target) triples.  The ranks are built
    once per fit and freed with it.
    """
    if not 0.0 < target_unique_fraction <= 1.0:
        raise ConfigError("target unique fraction must be in (0, 1]")
    if samples <= 0:
        raise ConfigError(f"samples must be positive, got {samples}")
    ranks = _ranks(rows)
    base = _expected_unique(ranks, samples, 0.0)
    if base <= target_unique_fraction:
        return 0.0
    lo, hi = 0.0, max_alpha
    if _expected_unique(ranks, samples, hi) > target_unique_fraction:
        return hi
    for _ in range(60):
        mid = (lo + hi) / 2
        got = _expected_unique(ranks, samples, mid)
        if abs(got - target_unique_fraction) < tolerance:
            return mid
        if got > target_unique_fraction:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def measured_unique_fraction(indices: np.ndarray) -> float:
    """Observed unique fraction of an index stream (Fig 5 style metric).

    Denominator follows the paper's definition: distinct ids over total
    lookups (capped at 1.0 for degenerate tiny streams).
    """
    if indices.size == 0:
        raise ConfigError("cannot measure an empty index stream")
    return min(1.0, np.unique(indices).size / indices.size)
