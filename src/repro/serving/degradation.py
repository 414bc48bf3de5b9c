"""Closed-loop graceful degradation: the paper's schemes as a ladder.

The paper's optimization schemes (Section 4) are strictly faster than the
baseline, but a production fleet does not run them unconditionally:
software prefetching burns instruction bandwidth and power, MP-HT claims
the sibling hyperthread that co-located jobs would otherwise use, and
shrinking the batch size sacrifices throughput efficiency for latency.
That makes them natural *degradation levers* (the asymmetric-data-flow
line of work motivates exactly this scheme-switching): under duress the
server steps down a ladder —

    level 0  baseline          normal operation
    level 1  sw_pf             enable software prefetching
    level 2  integrated        + model-parallel hyperthreading
    level 3  integrated_small_batch   + reduced batch size

— and steps back up once the tail recovers.  :class:`DegradationController`
implements the closed loop: it watches a sliding window of completed
request latencies, compares the windowed p95 against the SLA target with
hysteresis (escalate above ``escalate_margin * sla``, recover only below
``recover_margin * sla`` and after a cooldown), and emits
:class:`LevelChange` events.  The controller is purely deterministic —
no randomness — so identical latency streams produce identical ladders.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigError

__all__ = [
    "DegradationController",
    "DegradationLevel",
    "LevelChange",
    "scheme_ladder",
]


@dataclass(frozen=True)
class DegradationLevel:
    """One rung of the ladder: a name and its relative mean service time."""

    name: str
    service_scale: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.service_scale) or self.service_scale <= 0:
            raise ConfigError("service scale must be finite and positive")


@dataclass(frozen=True)
class LevelChange:
    """One controller decision, recorded for reporting and tracing."""

    time_ms: float
    from_level: int
    to_level: int
    window_p95_ms: float

    @property
    def escalation(self) -> bool:
        """Whether the change stepped toward more degradation."""
        return self.to_level > self.from_level


def scheme_ladder(
    scheme_service_ms: Mapping[str, float],
    batch_scale: float = 0.6,
) -> Tuple[DegradationLevel, ...]:
    """Build the default ladder from measured per-scheme service times.

    ``scheme_service_ms`` maps scheme names to mean batch service times;
    ``baseline`` is required and anchors level 0, ``sw_pf`` and
    ``integrated`` are used when present.  The final rung models batch-size
    reduction as a further ``batch_scale`` multiplier on the fastest
    scheme's service time (smaller batches cut per-request latency at a
    throughput-efficiency cost the goodput metric surfaces).
    """
    if "baseline" not in scheme_service_ms:
        raise ConfigError("scheme ladder needs a 'baseline' service time")
    if not 0.0 < batch_scale <= 1.0:
        raise ConfigError("batch scale must be in (0, 1]")
    base = float(scheme_service_ms["baseline"])
    if base <= 0:
        raise ConfigError("baseline service time must be positive")
    levels = [DegradationLevel("baseline", 1.0)]
    for scheme in ("sw_pf", "integrated"):
        if scheme in scheme_service_ms:
            scale = float(scheme_service_ms[scheme]) / base
            # A scheme slower than the previous rung cannot serve as a
            # degradation lever; skip it rather than build a broken ladder.
            if scale < levels[-1].service_scale:
                levels.append(DegradationLevel(scheme, scale))
    levels.append(
        DegradationLevel(
            f"{levels[-1].name}_small_batch",
            levels[-1].service_scale * batch_scale,
        )
    )
    return tuple(levels)


def _p95_terms(n: int) -> Tuple[int, int, float, bool]:
    """numpy's default linear 95th percentile of ``n`` sorted values, as
    ``(lo, hi, weight, from_hi)``: the result is
    ``xs[hi] - (xs[hi] - xs[lo]) * weight`` when ``from_hi``, else
    ``xs[lo] + (xs[hi] - xs[lo]) * weight`` — numpy's virtual index and its
    two-branch lerp (it switches formula at ``t >= 0.5`` to stay
    monotone), so the result is bit-equal to ``np.percentile``."""
    virtual = 0.95 * (n - 1)
    lo = int(virtual)
    gamma = virtual - lo
    hi = lo + 1 if lo + 1 < n else lo
    if gamma >= 0.5:
        return lo, hi, 1.0 - gamma, True
    return lo, hi, gamma, False


class DegradationController:
    """Hysteretic p95-vs-SLA feedback controller over a degradation ladder.

    Parameters
    ----------
    ladder:
        Levels ordered from normal (index 0) to most degraded; each rung's
        ``service_scale`` must not exceed the previous rung's (degrading
        must never slow the server down).
    sla_ms:
        The Table 1 target the windowed p95 is compared against.
    window:
        Number of most recent completed-request latencies considered.
    min_samples:
        Observations required (since the last level change) before any
        decision; the window is cleared on a change so each level is
        judged on its own measurements.
    escalate_margin / recover_margin:
        Hysteresis band: escalate when ``p95 > escalate_margin * sla``,
        recover only when ``p95 < recover_margin * sla``.
    cooldown:
        Extra observations required after a change before stepping back
        toward normal (recovery is deliberately slower than escalation).

    The protocol a serving loop relies on (``docs/serving.md``, "The
    serving loop"): :attr:`level` (and with it
    :meth:`scale`) changes only inside :meth:`observe`, which returns the
    :class:`LevelChange` it made or None.
    :class:`repro.tenants.qos.QoSController` implements the same protocol.
    :meth:`observe` relies on it too: it keeps each threshold count only
    while a decision can read it, which holds only if every level change
    clears the window, as its own changes do.
    """

    def __init__(
        self,
        ladder: Sequence[DegradationLevel],
        sla_ms: float,
        window: int = 64,
        min_samples: int = 16,
        escalate_margin: float = 1.0,
        recover_margin: float = 0.6,
        cooldown: int = 64,
    ) -> None:
        if not ladder:
            raise ConfigError("degradation ladder must have at least one level")
        for prev, cur in zip(ladder, ladder[1:]):
            if cur.service_scale > prev.service_scale + 1e-12:
                raise ConfigError(
                    f"ladder level {cur.name!r} is slower than {prev.name!r}; "
                    "degradation must not increase service time"
                )
        if not math.isfinite(sla_ms) or sla_ms <= 0:
            raise ConfigError("SLA must be finite and positive")
        if window <= 0 or min_samples <= 0 or min_samples > window:
            raise ConfigError("need 0 < min_samples <= window")
        if not 0.0 < recover_margin <= escalate_margin:
            raise ConfigError("need 0 < recover_margin <= escalate_margin")
        if cooldown < 0:
            raise ConfigError("cooldown must be non-negative")
        self.ladder: Tuple[DegradationLevel, ...] = tuple(ladder)
        self.sla_ms = float(sla_ms)
        self.window = int(window)
        self.min_samples = int(min_samples)
        self.escalate_margin = float(escalate_margin)
        self.recover_margin = float(recover_margin)
        self.cooldown = int(cooldown)
        self.level = 0
        self.events: List[LevelChange] = []
        # The window is a ring of the last ``window`` latencies plus two
        # counts over it: how many lie above the escalation threshold
        # and how many below the recovery threshold.  observe() decides
        # from the counts and sorts the ring only when they cannot.
        self._latencies: Deque[float] = deque(maxlen=self.window)
        self._above = 0
        self._below = 0
        self._since_change = 0
        # The first observation after a change that recovery may read.
        self._recover_after = max(self.cooldown, 1)
        self._escalate_above = self.sla_ms * self.escalate_margin
        self._recover_below = self.sla_ms * self.recover_margin
        # Per window length n, the p95's ranks as count bounds (see
        # observe()): ``(n - hi, lo)``, or bounds no count reaches below
        # min_samples.
        self._ranks_at: List[Tuple[int, int]] = [
            (self.window + 1, self.window)
        ] * self.min_samples
        for n in range(self.min_samples, self.window + 1):
            lo, hi, _, _ = _p95_terms(n)
            self._ranks_at.append((n - hi, lo))
        self._top = len(self.ladder) - 1

    @property
    def level_name(self) -> str:
        """Name of the current rung."""
        return self.ladder[self.level].name

    def scale(self) -> float:
        """Service-time multiplier of the current rung."""
        return self.ladder[self.level].service_scale

    def window_p95(self) -> float:
        """p95 of the sliding latency window (0.0 while empty).

        Computed in pure python from a sorted copy of the ring, bit-equal
        to numpy's default linear percentile (same virtual index, same
        two-branch lerp).  The lerp never leaves ``[xs[lo], xs[hi]]``,
        which is what lets :meth:`observe` decide from counts.
        """
        xs = sorted(self._latencies)
        if not xs:
            return 0.0
        lo, hi, weight, from_hi = _p95_terms(len(xs))
        a = xs[lo]
        b = xs[hi]
        if from_hi:
            return b - (b - a) * weight
        return a + (b - a) * weight

    def observe(self, now_ms: float, latency_ms: float) -> Optional[LevelChange]:
        """Feed one completed-request latency; maybe change level.

        Returns the :class:`LevelChange` made, or None when the level
        stayed: a serving loop re-reads :attr:`level` and :meth:`scale`
        only after a change.  This runs once per completed request, in
        O(1) unless the counts leave the decision open.

        The lerp keeps the p95 within ``[xs[lo], xs[hi]]`` of the sorted
        window.  With ``A`` values in the window above the escalation
        threshold, those are its top ``A`` entries, so ``xs[hi]`` is above
        the threshold only when ``A >= n - hi``; below that the p95
        cannot be, and the window is not sorted.  Recovery reads the
        ``B`` values below the recovery threshold the same way from the
        bottom: ``xs[lo]`` is below it only when ``B > lo``.  Otherwise
        the window is sorted for the exact p95, which decides and which
        a change records.

        A count is kept only while a decision can read it.  ``A`` is
        kept below the top rung.  ``B`` is read only above level 0 once
        the cooldown has passed, so it is counted from the ring at the
        first such observation and kept from then on.  A change clears
        the ring, so both start again from zero.
        """
        value = float(latency_ms)
        ring = self._latencies
        n = len(ring)
        full = n == self.window
        if full:
            old = ring[0]  # the append below evicts it
        else:
            n += 1
        ring.append(value)
        since = self._since_change + 1
        self._since_change = since
        level = self.level
        if level < self._top:
            above = self._above
            if full and old > self._escalate_above:
                above -= 1
            if value > self._escalate_above:
                above += 1
            self._above = above
            if above >= self._ranks_at[n][0]:
                p95 = self.window_p95()
                if p95 > self._escalate_above:
                    return self._change(now_ms, level + 1, p95)
        if level and since >= self._recover_after:
            recover_below = self._recover_below
            if since == self._recover_after:
                below = sum(1 for x in ring if x < recover_below)
            else:
                below = self._below
                if full and old < recover_below:
                    below -= 1
                if value < recover_below:
                    below += 1
            self._below = below
            if below > self._ranks_at[n][1]:
                p95 = self.window_p95()
                if p95 < recover_below:
                    return self._change(now_ms, level - 1, p95)
        return None

    def _change(self, now_ms: float, to_level: int, p95: float) -> LevelChange:
        event = LevelChange(
            time_ms=float(now_ms),
            from_level=self.level,
            to_level=to_level,
            window_p95_ms=p95,
        )
        self.events.append(event)
        self.level = to_level
        # Judge the new level on its own measurements.
        self._latencies.clear()
        self._above = 0
        self._below = 0
        self._since_change = 0
        return event
