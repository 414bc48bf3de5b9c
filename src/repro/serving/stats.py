"""Degenerate-input guards shared across serving aggregations.

Every serving-layer aggregate — a whole server, one pipeline, one cluster
node — faces the same degenerate inputs: no completed requests (empty
latency array), a single arrival (no offered rate), an all-shed node
(zero service time observed).  The repo-wide convention (matching
:meth:`repro.mem.stats.CacheStats.hit_rate`) is that degenerate inputs
yield ``0.0`` rather than an exception, ``NaN``, or a numpy warning.

Before the cluster layer each result type guarded its own fields ad hoc;
these helpers centralize the convention so multi-node aggregation (an
empty node, an all-shed node, a node that served exactly one request)
cannot re-introduce a division by zero in any one field.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from typing import Deque, Iterator, List

import numpy as np

from ..errors import ConfigError

__all__ = [
    "SortedWindow",
    "check_arrivals",
    "check_service",
    "safe_mean",
    "safe_percentile",
    "safe_ratio",
]


def check_arrivals(arrivals_ms: np.ndarray) -> None:
    """Reject arrival arrays a serving loop cannot order.

    Needs a non-empty 1-D array of finite, non-decreasing times: a NaN
    passes ``diff < 0`` yet breaks every ordered comparison an event loop
    makes, and an infinite arrival never happens.
    """
    if arrivals_ms.ndim != 1 or arrivals_ms.size == 0:
        raise ConfigError("need a non-empty 1-D arrival array")
    if not np.all(np.isfinite(arrivals_ms)):
        raise ConfigError("arrival times must be finite")
    if np.any(np.diff(arrivals_ms) < 0):
        raise ConfigError("arrival times must be non-decreasing")


def check_service(mean_ms: float, cv: float) -> None:
    """Reject a service-time distribution no draw can come from.

    Needs a finite, positive mean and a finite, non-negative coefficient
    of variation: a NaN passes both ordered checks yet turns every
    latency into NaN.
    """
    for name, value in (("mean service time", mean_ms), ("service CV", cv)):
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
    if mean_ms <= 0:
        raise ConfigError("mean service time must be positive")
    if cv < 0:
        raise ConfigError("coefficient of variation must be non-negative")


class SortedWindow:
    """The last ``size`` values in arrival order, plus the same values sorted.

    ``append`` evicts the oldest value once the window is full (a ring:
    a ``deque`` bounded at ``size``, so an append to it when full drops
    ``ring[0]``, which callers that update it inline rely on).
    :attr:`sorted` is kept up to date with ``bisect`` and always equals
    ``sorted(window)`` element for element, so a rolling percentile reads
    it instead of sorting on every query.  Values must be comparable
    (no NaN).
    """

    __slots__ = ("size", "sorted", "_ring")

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ConfigError("window size must be positive")
        self.size = size
        self.sorted: List[float] = []
        self._ring: Deque[float] = deque(maxlen=size)

    def append(self, value: float) -> None:
        """Add one value, evicting the oldest when the window is full."""
        ring = self._ring
        if len(ring) == self.size:
            ordered = self.sorted
            del ordered[bisect_left(ordered, ring.popleft())]
        ring.append(value)
        insort(self.sorted, value)

    def clear(self) -> None:
        """Empty the window."""
        self._ring.clear()
        self.sorted.clear()

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[float]:
        return iter(self._ring)

    def __getitem__(self, index: int) -> float:
        """The ``index``-th value in arrival order, oldest first."""
        return self._ring[index]


def safe_percentile(values: np.ndarray, q: float) -> float:
    """``np.percentile`` with the empty-input -> 0.0 convention."""
    arr = np.asarray(values)
    if arr.size == 0:
        return 0.0
    return float(np.percentile(arr, q))


def safe_mean(values: np.ndarray) -> float:
    """Arithmetic mean; 0.0 on an empty array (no NaN, no warning)."""
    arr = np.asarray(values)
    if arr.size == 0:
        return 0.0
    return float(np.mean(arr))


def safe_ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``; 0.0 when the denominator is <= 0."""
    if denominator <= 0:
        return 0.0
    return float(numerator) / float(denominator)
