"""The QoS closed loop: obs-signal detection -> defense stepping.

The controller never looks at the tenant schedule — it consumes only what
an operator could export from performance counters: the windowed
memory-stall share of the CPI stack (through a
:class:`~repro.obs.detect.MeanShiftDetector`, direction-gated upward) and
the per-level miss mix (through a
:class:`~repro.obs.detect.CompositionDriftDetector`).  Either detector
firing means a neighbor is squeezing the shared LLC/DRAM, and the
controller jumps the defense ladder to its top rung (CAT partition +
bandwidth throttle).

Release is probed, with hysteresis: after ``release_windows`` calm
windows the defense drops back to the undefended rung; if a detector
re-fires during the probation that follows, the controller jumps back and
*doubles* the calm requirement (exponential backoff), so a persistent
neighbor costs at most a geometrically-vanishing fraction of windows in
probes, while a departed neighbor frees the reserved ways within one calm
streak.

``QoSController`` implements the :class:`DegradationController` protocol
(``scale``/``observe``/``level``/``ladder``/``events``) by delegating to
an optional inner controller, so the serving loops compose overload
degradation and contention defense without knowing the difference.
Like the inner controller's, its ``observe`` returns the level change it
caused (the inner one's) or None; defense steps are not level changes —
they move the fault plan's multiplier, which the loops query per
dispatch.

Probe observations are seeded — ``SeedSequence([seed, stream, window])``
— with small multiplicative noise, mirroring counter-sampling jitter
without ever breaking determinism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..errors import ConfigError
from ..obs.detect import CompositionDriftDetector, DetectionEvent, MeanShiftDetector
from ..serving.degradation import (
    DegradationController,
    DegradationLevel,
    LevelChange,
)
from .plan import TenantWorld

__all__ = ["QoSAction", "QoSController"]

#: Sub-stream tag for probe-noise draws (per-window index appended).
_STREAM_QOS = 12

#: Ladder reported when no inner degradation controller is attached.
_NULL_LADDER = (DegradationLevel("baseline", 1.0),)

#: Backoff multipliers stop doubling here (bounded hysteresis).
_MAX_BACKOFF = 64


@dataclass(frozen=True)
class QoSAction:
    """One defense transition the controller took, with its trigger score."""

    t_ms: float
    from_step: int
    to_step: int
    reason: str
    score: float


class QoSController:
    """Detects noisy neighbors from obs signals and steps the defenses."""

    def __init__(
        self,
        world: TenantWorld,
        window_ms: float,
        *,
        inner: Optional[DegradationController] = None,
        seed: int = 0,
        warmup: int = 8,
        mem_threshold: float = 4.0,
        mix_threshold: float = 0.08,
        release_windows: int = 6,
        probe_noise: float = 0.02,
    ) -> None:
        if window_ms <= 0:
            raise ConfigError("QoS window must be positive")
        if release_windows < 1:
            raise ConfigError("release_windows must be >= 1")
        if not 0.0 <= probe_noise < 1.0:
            raise ConfigError(f"probe_noise must be in [0, 1), got {probe_noise}")
        self.world = world
        self.window_ms = float(window_ms)
        self.inner = inner
        self.seed = int(seed)
        self.warmup = int(warmup)
        self.release_windows = int(release_windows)
        self.probe_noise = float(probe_noise)
        # The sigma floor must sit below a neighbor's marginal shift even
        # when the warmup baseline is itself contended (an always-on
        # streamer lifts the mean, and a proportional floor would scale
        # with it); 2% still clears the probe-noise band with margin.
        self.mem_detector = MeanShiftDetector(
            "tenants.mem_stall_share",
            warmup=warmup,
            threshold=mem_threshold,
            min_sigma_frac=0.02,
            direction="up",
        )
        self.mix_detector = CompositionDriftDetector(
            "tenants.level_mix", warmup=warmup, threshold=mix_threshold
        )
        self.actions: List[QoSAction] = []
        self._window_index = 0
        self._next_end = self.window_ms
        self._calm = 0
        self._backoff = 1
        self._probation = 0

    # -- DegradationController protocol (delegated) -------------------------

    def scale(self) -> float:
        return self.inner.scale() if self.inner is not None else 1.0

    @property
    def level(self) -> int:
        return self.inner.level if self.inner is not None else 0

    @property
    def ladder(self):
        return self.inner.ladder if self.inner is not None else _NULL_LADDER

    @property
    def events(self):
        return self.inner.events if self.inner is not None else []

    def observe(
        self, now_ms: float, latency_ms: float
    ) -> Optional[LevelChange]:
        """Feed one completion; advances any QoS windows that have closed.

        Returns the inner controller's level change, or None.  Windows
        stop at the world's horizon: the tenant schedule is defined on
        ``[0, horizon)``, and probing the post-arrival drain would read
        the empty world as a signal shift.
        """
        change = (
            self.inner.observe(now_ms, latency_ms)
            if self.inner is not None
            else None
        )
        while (
            now_ms >= self._next_end
            and self._next_end <= self.world.horizon_ms
        ):
            self._step_window(self._next_end)
            self._window_index += 1
            self._next_end += self.window_ms
        return change

    # -- detection + defense ------------------------------------------------

    @property
    def detections(self) -> List[DetectionEvent]:
        """Both detectors' transitions, merged in time order."""
        return sorted(
            self.mem_detector.events + self.mix_detector.events,
            key=lambda e: e.t_ms,
        )

    def _probe(self, end_ms: float):
        """One window's noisy observation of the world's CPI probe."""
        mem_share, level_mix = self.world.probe_at(end_ms - self.window_ms / 2.0)
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, _STREAM_QOS, self._window_index])
        )
        jitter = self.probe_noise
        mem_obs = mem_share * (1.0 + jitter * (2.0 * float(rng.random()) - 1.0))
        mix_obs = {
            key: value * (1.0 + jitter * (2.0 * float(rng.random()) - 1.0))
            for key, value in sorted(level_mix.items())
        }
        return mem_obs, mix_obs

    def _step_window(self, end_ms: float) -> None:
        mem_obs, mix_obs = self._probe(end_ms)
        self.mem_detector.update(end_ms, mem_obs)
        self.mix_detector.update(end_ms, mix_obs)
        firing = self.mem_detector.firing or self.mix_detector.firing
        step = self.world.defense_step
        if firing:
            self._calm = 0
            if self._probation > 0:
                # A release probe flushed out the neighbor: re-arm with a
                # longer calm requirement before probing again.
                self._backoff = min(_MAX_BACKOFF, self._backoff * 2)
                self._probation = 0
            if step < self.world.max_step:
                score = max(
                    (e.score for e in self.detections if e.firing), default=0.0
                )
                self._move(end_ms, self.world.max_step, "detector_fired", score)
            return
        if self._probation > 0:
            self._probation -= 1
            if self._probation == 0:
                # The probe survived probation: the neighbor really left.
                self._backoff = 1
        if step > 0:
            self._calm += 1
            if self._calm >= self.release_windows * self._backoff:
                self._move(end_ms, 0, "release_probe", 0.0)
                self._calm = 0
                self._probation = self.release_windows

    def _move(self, t_ms: float, to_step: int, reason: str, score: float) -> None:
        from_step = self.world.defense_step
        self.world.set_defense(t_ms, to_step, reason)
        self.actions.append(QoSAction(t_ms, from_step, to_step, reason, score))
