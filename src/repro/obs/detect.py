"""Online drift detectors over windowed telemetry series.

The observatory's alerting has two kinds of signal: SLO burn rates
(:mod:`repro.obs.slo`), which say *the service is out of budget*, and the
drift detectors here, which say *something changed* — a node's error rate
jumped, its call latency shifted, the CPI-stack composition tilted from
retire-bound to DRAM-bound, the SLA-miss mix moved from queue to
partitions.  Both feed the same alert stream.

Two detector shapes cover the telemetry the simulator emits:

* :class:`MeanShiftDetector` — a scalar series (error rate, mean call
  latency, p95).  Keeps a reference mean/variance learned over a warmup
  prefix, then scores each new window by its z-distance from the
  reference; crossing ``threshold`` fires, falling back below the
  hysteresis band resolves.  While firing the reference is frozen so a
  long fault cannot teach the detector that broken is normal.
* :class:`CompositionDriftDetector` — a categorical mix that sums to ~1
  (CPI-stack fractions from :class:`repro.obs.cpi.CpiStack`, the
  miss-attribution mix from :func:`repro.obs.requests.miss_attribution`).
  Scores the L1 distance between the current mix and the reference mix;
  same fire/resolve hysteresis.

Everything is pure python, allocation-light, and deterministic: the event
sequence produced by a detector depends only on the value sequence fed to
it.  This is the interface the noisy-neighbor work (ROADMAP item 3) will
reuse: detecting an adversarial co-tenant "purely from the obs layer" is
exactly a CompositionDriftDetector on the CPI stack plus a
MeanShiftDetector on the miss rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import ConfigError

__all__ = [
    "CompositionDriftDetector",
    "DetectionEvent",
    "Detector",
    "MeanShiftDetector",
]

#: Alert states a detector event can carry.
DETECTOR_STATES = ("firing", "resolved")


@dataclass(frozen=True)
class DetectionEvent:
    """One state transition of one detector, in simulated time.

    ``score`` is the detector's distance measure at the transition (the
    z-score for a mean shift, the L1 distance for a composition drift);
    ``value`` is the raw observation that triggered it.
    """

    t_ms: float
    signal: str
    state: str  # "firing" | "resolved"
    value: float
    score: float
    node: Optional[int] = None

    @property
    def firing(self) -> bool:
        return self.state == "firing"


class Detector:
    """Base class: feed windowed observations, collect state transitions.

    Subclasses implement :meth:`update`; callers drive it once per
    simulated-time window (skipping windows with no signal, e.g. a node
    that received no calls) and collect the returned events.  ``firing``
    exposes the current state for timeline rendering.
    """

    def __init__(self, signal: str, node: Optional[int] = None) -> None:
        self.signal = signal
        self.node = node
        self.firing = False
        self.events: List[DetectionEvent] = []

    def update(self, t_ms: float, value) -> Optional[DetectionEvent]:
        raise NotImplementedError

    def _transition(
        self, t_ms: float, state: str, value: float, score: float
    ) -> DetectionEvent:
        self.firing = state == "firing"
        event = DetectionEvent(
            t_ms=float(t_ms),
            signal=self.signal,
            state=state,
            value=float(value),
            score=float(score),
            node=self.node,
        )
        self.events.append(event)
        return event


class MeanShiftDetector(Detector):
    """Z-score shift detection on a scalar windowed series.

    The first ``warmup`` observations only build the reference (no
    events can fire); after that each value is scored as
    ``z = (x - mean) / max(sigma, min_sigma, min_sigma_frac * |mean|)``.
    ``|z| >= threshold`` (direction-gated) fires; ``|z| <= threshold *
    resolve_frac`` resolves.  While healthy the reference tracks slow
    legitimate change with an EWMA of rate ``alpha``; while firing it is
    frozen, so recovery is judged against the pre-fault baseline.

    The sigma floors matter for near-constant baselines: a healthy node's
    error rate is identically 0.0, so without a floor the first failed
    call would divide by zero variance.
    """

    def __init__(
        self,
        signal: str,
        *,
        node: Optional[int] = None,
        warmup: int = 8,
        threshold: float = 4.0,
        resolve_frac: float = 0.5,
        min_sigma: float = 1e-3,
        min_sigma_frac: float = 0.05,
        alpha: float = 0.05,
        direction: str = "both",
    ) -> None:
        super().__init__(signal, node)
        if warmup < 2:
            raise ConfigError("mean-shift warmup needs at least 2 windows")
        if threshold <= 0:
            raise ConfigError("mean-shift threshold must be positive")
        if not 0.0 <= resolve_frac <= 1.0:
            raise ConfigError("resolve fraction must be in [0, 1]")
        if direction not in ("both", "up", "down"):
            raise ConfigError("direction must be 'both', 'up', or 'down'")
        self.warmup = warmup
        self.threshold = threshold
        self.resolve_frac = resolve_frac
        self.min_sigma = min_sigma
        self.min_sigma_frac = min_sigma_frac
        self.alpha = alpha
        self.direction = direction
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0  # Welford sum of squared deviations (warmup)
        self._var = 0.0

    def _sigma(self) -> float:
        sigma = self._var ** 0.5
        return max(sigma, self.min_sigma, self.min_sigma_frac * abs(self._mean))

    def update(self, t_ms: float, value: float) -> Optional[DetectionEvent]:
        """Score one window's observation; returns a transition or None."""
        x = float(value)
        self._count += 1
        if self._count <= self.warmup:
            delta = x - self._mean
            self._mean += delta / self._count
            self._m2 += delta * (x - self._mean)
            if self._count == self.warmup:
                self._var = self._m2 / max(1, self.warmup - 1)
            return None
        z = (x - self._mean) / self._sigma()
        if self.direction == "up":
            score = z
        elif self.direction == "down":
            score = -z
        else:
            score = abs(z)
        if not self.firing:
            if score >= self.threshold:
                return self._transition(t_ms, "firing", x, score)
            # Healthy: let the reference drift slowly toward the data.
            self._mean += self.alpha * (x - self._mean)
            dev = x - self._mean
            self._var += self.alpha * (dev * dev - self._var)
            return None
        if score <= self.threshold * self.resolve_frac:
            return self._transition(t_ms, "resolved", x, score)
        return None


class CompositionDriftDetector(Detector):
    """L1 drift detection on a categorical composition (mix of fractions).

    Feed it dict observations — CPI-stack bucket fractions, the
    miss-attribution cause mix — each normalized internally to sum to 1.
    The score is half the L1 distance to the reference mix (total
    variation distance, in [0, 1]): 0.25 means a quarter of the mass
    moved buckets.  Reference handling mirrors
    :class:`MeanShiftDetector`: averaged over ``warmup`` windows, EWMA
    while healthy, frozen while firing.
    """

    def __init__(
        self,
        signal: str,
        *,
        node: Optional[int] = None,
        warmup: int = 4,
        threshold: float = 0.25,
        resolve_frac: float = 0.5,
        alpha: float = 0.05,
    ) -> None:
        super().__init__(signal, node)
        if warmup < 1:
            raise ConfigError("composition warmup needs at least 1 window")
        if not 0.0 < threshold <= 1.0:
            raise ConfigError("composition threshold must be in (0, 1]")
        if not 0.0 <= resolve_frac <= 1.0:
            raise ConfigError("resolve fraction must be in [0, 1]")
        self.warmup = warmup
        self.threshold = threshold
        self.resolve_frac = resolve_frac
        self.alpha = alpha
        self._count = 0
        self._ref: Dict[str, float] = {}

    @staticmethod
    def _normalize(mix: Dict[str, float]) -> Dict[str, float]:
        total = sum(max(0.0, float(v)) for v in mix.values())
        if total <= 0.0:
            return {}
        return {k: max(0.0, float(v)) / total for k, v in mix.items()}

    def _distance(self, mix: Dict[str, float]) -> float:
        keys = set(self._ref) | set(mix)
        l1 = sum(abs(self._ref.get(k, 0.0) - mix.get(k, 0.0)) for k in keys)
        return 0.5 * l1

    def update(
        self, t_ms: float, mix: Dict[str, float]
    ) -> Optional[DetectionEvent]:
        """Score one window's composition; returns a transition or None."""
        norm = self._normalize(mix)
        if not norm:  # no mass this window: no information
            return None
        self._count += 1
        if self._count <= self.warmup:
            w = 1.0 / self._count
            keys = set(self._ref) | set(norm)
            self._ref = {
                k: (1.0 - w) * self._ref.get(k, 0.0) + w * norm.get(k, 0.0)
                for k in keys
            }
            return None
        dist = self._distance(norm)
        if not self.firing:
            if dist >= self.threshold:
                return self._transition(t_ms, "firing", dist, dist)
            keys = set(self._ref) | set(norm)
            self._ref = {
                k: (1.0 - self.alpha) * self._ref.get(k, 0.0)
                + self.alpha * norm.get(k, 0.0)
                for k in keys
            }
            return None
        if dist <= self.threshold * self.resolve_frac:
            return self._transition(t_ms, "resolved", dist, dist)
        return None
