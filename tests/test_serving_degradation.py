"""Degradation controller tests: ladder, hysteresis, recovery, and the
count-based controller against its sorted-window oracle."""

import numpy as np
import pytest

from serving_oracle import SortedWindowController
from repro.errors import ConfigError
from repro.serving.degradation import (
    DegradationController,
    DegradationLevel,
    scheme_ladder,
)

LADDER = (
    DegradationLevel("baseline", 1.0),
    DegradationLevel("integrated", 0.5),
    DegradationLevel("integrated_small_batch", 0.3),
)


def feed(controller, latency_ms, count, start_ms=0.0, step_ms=1.0):
    """Feed `count` identical samples, returning the last change (if any)."""
    change = None
    for i in range(count):
        event = controller.observe(start_ms + i * step_ms, latency_ms)
        if event is not None:
            change = event
    return change


class TestSchemeLadder:
    def test_orders_by_speed_and_appends_batch_rung(self):
        ladder = scheme_ladder(
            {"baseline": 10.0, "sw_pf": 8.0, "integrated": 5.0}, batch_scale=0.6
        )
        assert [lvl.name for lvl in ladder] == [
            "baseline", "sw_pf", "integrated", "integrated_small_batch",
        ]
        assert ladder[0].service_scale == 1.0
        assert ladder[2].service_scale == pytest.approx(0.5)
        assert ladder[3].service_scale == pytest.approx(0.3)

    def test_drops_schemes_that_are_not_faster(self):
        ladder = scheme_ladder({"baseline": 10.0, "sw_pf": 11.0, "integrated": 5.0})
        assert [lvl.name for lvl in ladder] == [
            "baseline", "integrated", "integrated_small_batch",
        ]

    def test_requires_baseline(self):
        with pytest.raises(ConfigError):
            scheme_ladder({"integrated": 5.0})

    def test_batch_scale_validation(self):
        with pytest.raises(ConfigError):
            scheme_ladder({"baseline": 10.0}, batch_scale=0.0)
        with pytest.raises(ConfigError):
            scheme_ladder({"baseline": 10.0}, batch_scale=1.5)


class TestController:
    def make(self, **overrides):
        kwargs = dict(
            ladder=LADDER, sla_ms=100.0, window=32, min_samples=8,
            escalate_margin=1.0, recover_margin=0.5, cooldown=16,
        )
        kwargs.update(overrides)
        return DegradationController(**kwargs)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_values_rejected(self, value):
        with pytest.raises(ConfigError):
            DegradationLevel("b", value)
        with pytest.raises(ConfigError):
            self.make(sla_ms=value)

    def test_validation(self):
        with pytest.raises(ConfigError):
            DegradationController(ladder=(), sla_ms=100.0)
        with pytest.raises(ConfigError):
            # Ladder must not slow down as it escalates.
            DegradationController(
                ladder=(DegradationLevel("a", 0.5), DegradationLevel("b", 1.0)),
                sla_ms=100.0,
            )
        with pytest.raises(ConfigError):
            self.make(sla_ms=0.0)
        with pytest.raises(ConfigError):
            self.make(recover_margin=1.5)
        with pytest.raises(ConfigError):
            self.make(min_samples=0)
        with pytest.raises(ConfigError):
            self.make(min_samples=64, window=32)

    def test_starts_at_baseline_and_holds_when_healthy(self):
        ctl = self.make()
        assert ctl.level_name == "baseline"
        assert ctl.scale() == 1.0
        assert feed(ctl, 50.0, 200) is None
        assert ctl.level_name == "baseline"
        assert not ctl.events

    def test_escalates_on_sustained_violation(self):
        ctl = self.make()
        change = feed(ctl, 150.0, ctl.min_samples)
        assert change is not None
        assert change.escalation
        assert change.from_level == 0
        assert change.to_level == 1
        assert ctl.level_name == "integrated"
        assert ctl.scale() == pytest.approx(0.5)
        assert change.window_p95_ms == pytest.approx(150.0)

    def test_needs_min_samples_before_acting(self):
        ctl = self.make()
        assert feed(ctl, 500.0, ctl.min_samples - 1) is None
        assert ctl.level_name == "baseline"

    def test_escalates_to_bottom_under_persistent_violation(self):
        ctl = self.make()
        feed(ctl, 500.0, 200)
        assert ctl.level_name == "integrated_small_batch"
        # Saturates: no further events once at the last rung.
        n_events = len(ctl.events)
        assert feed(ctl, 500.0, 200) is None or len(ctl.events) == n_events

    def test_hysteresis_band_prevents_flapping(self):
        ctl = self.make()
        feed(ctl, 150.0, ctl.min_samples)  # escalate once
        assert ctl.level_name == "integrated"
        # Latency between recover (50) and escalate (100) thresholds: hold.
        assert feed(ctl, 70.0, 500) is None
        assert ctl.level_name == "integrated"
        assert len(ctl.events) == 1

    def test_recovers_after_cooldown(self):
        ctl = self.make()
        feed(ctl, 150.0, ctl.min_samples)
        assert ctl.level_name == "integrated"
        change = feed(ctl, 20.0, ctl.cooldown + ctl.window)
        assert change is not None
        assert not change.escalation
        assert change.to_level == 0
        assert ctl.level_name == "baseline"
        assert ctl.scale() == 1.0

    def test_no_recovery_before_cooldown(self):
        ctl = self.make(cooldown=1000)
        feed(ctl, 150.0, ctl.min_samples)
        assert feed(ctl, 20.0, 500) is None
        assert ctl.level_name == "integrated"

    def test_deterministic(self):
        def run():
            ctl = self.make()
            pattern = [150.0] * 40 + [20.0] * 200 + [300.0] * 60
            for i, lat in enumerate(pattern):
                ctl.observe(float(i), lat)
            return [(e.time_ms, e.from_level, e.to_level) for e in ctl.events]

        assert run() == run()

    def test_window_p95_reflects_recent_samples(self):
        ctl = self.make()
        feed(ctl, 10.0, ctl.window)
        assert ctl.window_p95() == pytest.approx(10.0)


# -- differential: threshold counts vs the sorted window ------------------------

LADDERS = {
    1: (DegradationLevel("baseline", 1.0),),
    2: LADDER[:2],
    3: LADDER,
    4: scheme_ladder({"baseline": 1.0, "sw_pf": 0.8, "integrated": 0.65}),
}


def _stream(rng, sla_ms, escalate, recover, count):
    """Latencies in phases of calm and overload, a quarter of them exactly
    on a threshold or one ulp to either side of it."""
    out = []
    while len(out) < count:
        centre = sla_ms * rng.choice([0.1, 0.3, 0.6, 0.9, 1.1, 1.6])
        for _ in range(int(rng.integers(5, 120))):
            if rng.random() < 0.25:
                edge = float(rng.choice([escalate, recover]))
                value = float(rng.choice(
                    [edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)]
                ))
            else:
                value = float(rng.exponential(centre))
            out.append(value)
    return out[:count]


def _same_after_every_call(config, latencies):
    new = DegradationController(**config)
    old = SortedWindowController(**config)
    for i, value in enumerate(latencies):
        got, want = new.observe(float(i), value), old.observe(float(i), value)
        assert got == want, (i, got, want)
        if got is not None:
            assert got.window_p95_ms.hex() == want.window_p95_ms.hex()
        assert new.events == old.events
        assert new.level == old.level
        assert new.window_p95().hex() == old.window_p95().hex(), i
    return new


@pytest.mark.parametrize("levels", sorted(LADDERS))
@pytest.mark.parametrize(
    "window,min_samples,cooldown",
    [
        (21, 21, 0),    # p95 index integral, min_samples == window
        (41, 41, 5),
        (48, 12, 0),
        (48, 12, 256),
        (64, 16, 64),
        (1, 1, 0),
        (2, 1, 3),
        (20, 20, 1),
    ],
)
@pytest.mark.parametrize("margins", [(1.0, 0.6), (0.75, 0.4), (0.8, 0.8)])
def test_counts_match_sorted_window(levels, window, min_samples, cooldown, margins):
    escalate_margin, recover_margin = margins
    sla_ms = 25.0
    config = dict(
        ladder=LADDERS[levels], sla_ms=sla_ms, window=window,
        min_samples=min_samples, escalate_margin=escalate_margin,
        recover_margin=recover_margin, cooldown=cooldown,
    )
    rng = np.random.default_rng([levels, window, min_samples, cooldown])
    latencies = _stream(
        rng, sla_ms, sla_ms * escalate_margin, sla_ms * recover_margin, 1500
    )
    _same_after_every_call(config, latencies)


def test_counts_match_sorted_window_on_random_configs():
    rng = np.random.default_rng(30)
    for _ in range(150):
        window = int(rng.choice([1, 2, 3, 5, 20, 21, 40, 41, 48, 64, 97]))
        escalate_margin = float(rng.uniform(0.3, 1.5))
        recover_margin = (
            escalate_margin if rng.random() < 0.2
            else float(rng.uniform(0.05, 1.0)) * escalate_margin
        )
        sla_ms = float(rng.uniform(1.0, 50.0))
        config = dict(
            ladder=LADDERS[int(rng.integers(1, 5))], sla_ms=sla_ms,
            window=window, min_samples=int(rng.integers(1, window + 1)),
            escalate_margin=escalate_margin, recover_margin=recover_margin,
            cooldown=int(rng.choice([0, 1, 7, 64, 300])),
        )
        latencies = _stream(
            rng, sla_ms, sla_ms * escalate_margin, sla_ms * recover_margin, 600
        )
        _same_after_every_call(config, latencies)


# -- differential: where the counts start again ----------------------------------
#
# The escalation count is kept only below the top rung, and the recovery
# count is taken from the ring at the first observation after a change
# that recovery may read (the cooldown's end), then kept.  These cases sit
# on those boundaries.

SLA = 10.0
HIGH, MID, LOW = 30.0, 7.0, 1.0  # above 1.0 x SLA, inside the band, below 0.5 x SLA
RECOVER = SLA * 0.5


def _boundary_config(levels, window, min_samples, cooldown):
    return dict(
        ladder=LADDERS[levels], sla_ms=SLA, window=window,
        min_samples=min_samples, escalate_margin=1.0, recover_margin=0.5,
        cooldown=cooldown,
    )


def _with_noise(phases, seed, count=400):
    rng = np.random.default_rng(seed)
    return phases + _stream(rng, SLA, SLA, RECOVER, count)


def test_boundary_cooldown_equals_window():
    config = _boundary_config(3, window=16, min_samples=4, cooldown=16)
    latencies = _with_noise(
        [HIGH] * 8 + [LOW] * 40 + [HIGH] * 20 + [MID] * 16 + [LOW] * 40, seed=1
    )
    ctl = _same_after_every_call(config, latencies)
    assert any(not e.escalation for e in ctl.events)


def test_boundary_cooldown_two_reads_before_the_window_fills():
    config = _boundary_config(3, window=32, min_samples=1, cooldown=2)
    latencies = _with_noise([HIGH, LOW, LOW, LOW, HIGH, LOW, LOW] * 6, seed=2)
    ctl = _same_after_every_call(config, latencies)
    # A recovery decided on fewer latencies than the window holds.
    first_up = next(k for k, e in enumerate(ctl.events) if not e.escalation)
    assert ctl.events[first_up].time_ms - ctl.events[first_up - 1].time_ms < 32


def test_boundary_top_rung_held_longer_than_the_window():
    config = _boundary_config(3, window=8, min_samples=4, cooldown=4)
    latencies = _with_noise(
        [HIGH] * 100 + [LOW] * 30 + [HIGH] * 40 + [MID] * 20 + [LOW] * 30, seed=3
    )
    ctl = _same_after_every_call(config, latencies[:100])
    assert ctl.level == len(LADDERS[3]) - 1
    assert ctl.events[-1].time_ms < 100 - 8
    _same_after_every_call(config, latencies)


def test_boundary_one_rung_ladder():
    # Level 0 is the top: neither count is ever read.
    config = _boundary_config(1, window=8, min_samples=2, cooldown=0)
    ctl = _same_after_every_call(
        config, _with_noise([HIGH] * 30 + [LOW] * 30, seed=4)
    )
    assert not ctl.events


@pytest.mark.parametrize("cooldown", [19, 20, 21])
def test_boundary_p95_on_the_recovery_threshold_when_cooldown_ends(cooldown):
    # Every latency exactly on the threshold: the p95 equals it when the
    # cooldown ends, and recovery needs it strictly below.
    config = _boundary_config(2, window=20, min_samples=20, cooldown=cooldown)
    below = float(np.nextafter(RECOVER, 0.0))
    latencies = [HIGH] * 20 + [RECOVER] * 40 + [below] * 40
    ctl = _same_after_every_call(config, latencies)
    assert [e.escalation for e in ctl.events] == [True, False]
    assert ctl.events[1].window_p95_ms < RECOVER
    assert ctl.events[1].time_ms >= 60



# -- the threshold counts themselves ----------------------------------------------


def test_live_counts_equal_a_recount_of_the_ring():
    """After every observe, each count a decision can read equals a
    recount of the ring: the escalation count below the top rung, the
    recovery count above level 0 once the cooldown has passed.  A count
    that drifts high only makes the controller sort more often, so the
    sorted-window differential above cannot see it; this recount can."""
    config = _boundary_config(3, window=16, min_samples=4, cooldown=8)
    ctl = DegradationController(**config)
    rng = np.random.default_rng(31)
    read = {"above": 0, "below": 0}
    for i, value in enumerate(_stream(rng, SLA, SLA, RECOVER, 3000)):
        ctl.observe(float(i), value)
        ring = list(ctl._latencies)
        full = len(ring) == ctl.window
        if ctl.level < len(ctl.ladder) - 1:
            assert ctl._above == sum(x > ctl._escalate_above for x in ring), i
            read["above"] += full
        if ctl.level and ctl._since_change >= ctl._recover_after:
            assert ctl._below == sum(x < ctl._recover_below for x in ring), i
            read["below"] += full
    # Both thresholds are crossed, each way, and both counts are read on
    # a full ring, where every observe evicts a latency.
    assert {e.escalation for e in ctl.events} == {True, False}
    assert max(e.to_level for e in ctl.events) == 2
    assert read["above"] > 100 and read["below"] > 1000, read
