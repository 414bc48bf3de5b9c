"""Counter / gauge / histogram metrics with a process-local registry.

The registry is the simulator's analog of a perf-counter multiplexer: every
subsystem (caches, DRAM, cores, the serving queue) publishes its counters
under stable dotted names with optional labels, and one export call writes
the whole set as JSONL for offline analysis (``tools/trace_report.py``).

Histograms use **fixed log2 buckets**: bucket ``k`` holds observations in
``[2**(k-1), 2**k)`` (with one underflow bucket below ``2**LOG2_MIN``).
Log2 bucketing keeps the bucket count tiny across the simulator's dynamic
range — load latencies span 5 cycles (L1) to ~1e4 (queued DRAM), request
latencies span sub-ms to seconds — while bounding the relative error of any
reconstructed percentile by 2x, the same trade VTune's latency histograms
make.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import ConfigError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LOG2_MIN",
    "LOG2_MAX",
]

#: Smallest histogram bucket exponent: values below ``2**LOG2_MIN`` land in
#: the underflow bucket.  2**-10 ~ 1e-3 covers sub-millisecond latencies.
LOG2_MIN = -10

#: Largest bucket exponent: values at or above ``2**LOG2_MAX`` clamp into
#: the last bucket.  2**40 ~ 1e12 cycles is beyond any simulated quantity.
LOG2_MAX = 40

#: Metric label set, stored sorted so label order never distinguishes keys.
LabelSet = Tuple[Tuple[str, str], ...]


def _labelset(labels: Dict[str, str]) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass
class Counter:
    """Monotonically increasing event count (float-valued for cycle sums)."""

    name: str
    labels: LabelSet = ()
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative: counters only go up)."""
        if amount < 0:
            raise ConfigError(f"counter {self.name} increment must be >= 0")
        self.value += amount

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready record of this metric."""
        return {
            "type": "counter",
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }


@dataclass
class Gauge:
    """Last-write-wins instantaneous value (utilization, inflation, ...)."""

    name: str
    labels: LabelSet = ()
    value: float = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready record of this metric."""
        return {
            "type": "gauge",
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Histogram:
    """Fixed log2-bucket distribution with exact count/sum/min/max.

    Bucket ``i`` (for ``i >= 1``) counts observations in
    ``[2**(i + LOG2_MIN - 1), 2**(i + LOG2_MIN))``; bucket 0 is the
    underflow bucket for values below ``2**LOG2_MIN`` (including zero and
    negatives, which the simulator never produces but the bucket absorbs
    defensively).
    """

    NUM_BUCKETS = LOG2_MAX - LOG2_MIN + 1

    #: Exemplar ids kept per bucket; enough to find concrete offending
    #: requests without letting the snapshot grow with the request count.
    MAX_EXEMPLARS_PER_BUCKET = 4

    def __init__(self, name: str = "", labels: LabelSet = ()) -> None:
        self.name = name
        self.labels = labels
        self.buckets = np.zeros(self.NUM_BUCKETS, dtype=np.int64)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.exemplars: Dict[int, List[str]] = {}

    @staticmethod
    def bucket_index(value: float) -> int:
        """Bucket index a single value falls into.

        ``frexp`` writes ``value = m * 2**e`` with ``m in [0.5, 1)``, so
        ``e`` is exactly the upper exponent of the half-open log2 interval
        containing ``value`` — no special-casing of powers of two.
        """
        if value < 2.0**LOG2_MIN:
            return 0
        _, e = math.frexp(value)
        return min(e, LOG2_MAX) - LOG2_MIN

    @staticmethod
    def bucket_upper_bound(index: int) -> float:
        """Exclusive upper edge of bucket ``index``."""
        return 2.0 ** (index + LOG2_MIN)

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.buckets[self.bucket_index(value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @staticmethod
    def _bucket_codes(values: np.ndarray) -> np.ndarray:
        """:meth:`bucket_index` of every value, as ``uint8`` codes: below
        ``2**(LOG2_MIN - 1)`` the exponent would pick a bucket under 0."""
        _, exp = np.frexp(np.maximum(values, 2.0 ** (LOG2_MIN - 1)))
        return (np.minimum(exp, LOG2_MAX) - LOG2_MIN).astype(np.uint8)

    def observe_many(self, values: np.ndarray) -> None:
        """Record a batch of observations (vectorized bucket assignment)."""
        values = np.asarray(values, dtype=np.float64).ravel()
        self._observe_coded(values, self._bucket_codes(values))

    def observe_exemplar(self, value: float, exemplar_id: str) -> None:
        """Record one observation with an exemplar id for its bucket.

        Exemplars link histogram buckets back to concrete events (request
        ids from :mod:`repro.obs.requests`): the first
        :data:`MAX_EXEMPLARS_PER_BUCKET` ids per bucket are kept, so every
        populated bucket — in particular the slow tail buckets — names
        requests that landed in it.
        """
        value = float(value)
        self.observe(value)
        ids = self.exemplars.setdefault(self.bucket_index(value), [])
        if len(ids) < self.MAX_EXEMPLARS_PER_BUCKET:
            ids.append(str(exemplar_id))

    def _observe_coded(self, values, codes, exemplar_of=None, count=0) -> None:
        """:meth:`observe_many` of a float64 batch and its codes: one bucket
        pass feeds many.

        With ``exemplar_of``, the same state as :meth:`observe_exemplar`
        ``(values[k], exemplar_of(k))`` for ``k < count`` and
        :meth:`observe` for the rest, in order: ``sum`` adds left to right
        (a cumulative sum, not numpy's pairwise one), and ``exemplar_of``
        is called only for the values kept as a bucket's first exemplars.
        """
        if values.size == 0:
            return
        # bincount, not np.add.at: identical counts, but add.at's buffered
        # fancy indexing is ~25x slower on multi-million-element batches.
        self.buckets += np.bincount(codes, minlength=self.NUM_BUCKETS)
        self.count += values.size
        self.min = min(self.min, float(values.min()))
        self.max = max(self.max, float(values.max()))
        if exemplar_of is None:
            self.sum += float(values.sum())
            return
        self.sum = float(np.cumsum(np.concatenate(([self.sum], values)))[-1])
        # A stable sort of the uint8 codes (a radix sort) groups each
        # bucket's values in observation order; its first ids head the run.
        tagged = codes[:count]
        order = tagged.argsort(kind="stable")
        bounds = tagged[order].searchsorted(
            np.arange(self.NUM_BUCKETS + 1, dtype=np.uint8)
        )
        heads = bounds[:-1, None] + np.arange(self.MAX_EXEMPLARS_PER_BUCKET)
        # Walk the candidates in observation order, so buckets fill (and
        # are created) exactly as the one-by-one loop would.
        for k in np.sort(order[heads[heads < bounds[1:, None]]]).tolist():
            ids = self.exemplars.setdefault(int(tagged[k]), [])
            if len(ids) < self.MAX_EXEMPLARS_PER_BUCKET:
                ids.append(str(exemplar_of(k)))

    @property
    def mean(self) -> float:
        """Exact mean of all observations (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate percentile (q in [0, 100]) from the buckets.

        Linear interpolation within the containing bucket, clamped to the
        observed min/max so the estimate never leaves the data range.
        Returns 0.0 when the histogram is empty, matching the empty-case
        convention of :class:`repro.mem.stats.CacheStats.hit_rate` (the
        snapshot form reports ``None`` instead, alongside min/max — a
        reconstructed 0.0 percentile would read as "fast", not "absent").
        """
        if not 0.0 <= q <= 100.0:
            raise ConfigError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        target = q / 100.0 * self.count
        cum = 0
        for i, n in enumerate(self.buckets.tolist()):
            if n == 0:
                continue
            if cum + n >= target:
                upper = self.bucket_upper_bound(i)
                lower = upper / 2.0 if i > 0 else 0.0
                frac = (target - cum) / n
                estimate = lower + frac * (upper - lower)
                return min(max(estimate, self.min), self.max)
            cum += n
        return self.max

    def merge(self, other: "Histogram") -> "Histogram":
        """Return the combination of two histograms (same bucketing)."""
        merged = Histogram(self.name, self.labels)
        merged.buckets = self.buckets + other.buckets
        merged.count = self.count + other.count
        merged.sum = self.sum + other.sum
        merged.min = min(self.min, other.min)
        merged.max = max(self.max, other.max)
        for source in (self, other):
            for bucket, ids in source.exemplars.items():
                kept = merged.exemplars.setdefault(bucket, [])
                kept.extend(ids[: self.MAX_EXEMPLARS_PER_BUCKET - len(kept)])
        return merged

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready record: sparse non-zero buckets plus summary stats.

        A zero-sample histogram reports ``None`` for min/max *and* the
        percentiles — consistently "no data", never a reconstructed 0.0
        that downstream tooling could mistake for a measured latency.
        """
        nonzero = np.nonzero(self.buckets)[0]
        record: Dict[str, object] = {
            "type": "histogram",
            "name": self.name,
            "labels": dict(self.labels),
            "count": int(self.count),
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "p50": self.percentile(50.0) if self.count else None,
            "p95": self.percentile(95.0) if self.count else None,
            "p99": self.percentile(99.0) if self.count else None,
            "buckets": {
                str(self.bucket_upper_bound(int(i))): int(self.buckets[i])
                for i in nonzero
            },
        }
        if self.exemplars:
            record["exemplars"] = {
                str(self.bucket_upper_bound(int(bucket))): list(ids)
                for bucket, ids in sorted(self.exemplars.items())
            }
        return record


class MetricsRegistry:
    """Get-or-create store of metrics keyed by (name, labels).

    One registry lives for one observed run (see :mod:`repro.obs.hooks`);
    subsystems fetch their instruments on publication, so an instrument
    exists only if something actually emitted it.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelSet], object] = {}

    def _get(self, cls, name: str, labels: Dict[str, str]):
        key = (name, _labelset(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1])
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise ConfigError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        """The counter for (name, labels), created on first use."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        """The gauge for (name, labels), created on first use."""
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: str) -> Histogram:
        """The histogram for (name, labels), created on first use."""
        return self._get(Histogram, name, labels)

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[object]:
        return iter(self._metrics.values())

    def find(self, name: str) -> List[object]:
        """Every metric registered under ``name`` (any label set)."""
        return [m for (n, _), m in self._metrics.items() if n == name]

    def value(self, name: str, **labels: str) -> Optional[float]:
        """Scalar value of a counter/gauge, or None if never emitted."""
        metric = self._metrics.get((name, _labelset(labels)))
        if metric is None:
            return None
        return metric.value  # type: ignore[union-attr]

    def snapshot(self) -> List[Dict[str, object]]:
        """JSON-ready records of every metric, sorted by (name, labels)."""
        return [
            self._metrics[key].snapshot()  # type: ignore[union-attr]
            for key in sorted(self._metrics)
        ]

    def to_jsonl(self, path) -> int:
        """Write one JSON object per metric; returns the metric count."""
        records = self.snapshot()
        with open(path, "w") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
        return len(records)
