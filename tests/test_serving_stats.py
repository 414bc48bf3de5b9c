"""The bisect-maintained rolling window shared by hedging and degradation."""

from collections import deque

import numpy as np
import pytest

import cluster_oracle
from repro.serving.degradation import DegradationController, scheme_ladder
from repro.serving.router import LatencyWindow
from repro.serving.stats import SortedWindow


def _stream(seed, length):
    """Values on a 0.1 grid (plenty of duplicates) and where to clear."""
    rng = np.random.default_rng(seed)
    values = np.round(rng.exponential(5.0, size=length), 1).tolist()
    clears = (rng.random(length) < 0.02).tolist()
    return values, clears


@pytest.mark.parametrize("size", [1, 2, 3, 8, 48, 128])
def test_sorted_window_is_the_sorted_ring(size):
    for seed in range(4):
        window, ring = SortedWindow(size), deque(maxlen=size)
        values, clears = _stream(seed, 700)
        for value, clear in zip(values, clears):
            if clear:
                window.clear()
                ring.clear()
            window.append(value)
            ring.append(value)
            assert list(window) == list(ring)
            assert window.sorted == sorted(ring)


def test_latency_window_quantile_bit_equal_to_sorting_each_time():
    for seed in range(4):
        window = LatencyWindow(64)
        sorting = cluster_oracle.LatencyWindow(64)
        values, _ = _stream(100 + seed, 400)
        for value in values:
            window.observe(value)
            sorting.observe(value)
            for q in (50.0, 90.0, 95.0, 99.0, 100.0):
                assert window.quantile(q) == sorting.quantile(q)
        assert window.quantile(95.0) == pytest.approx(
            float(np.percentile(values[-64:], 95.0))
        )


def test_controller_p95_bit_equal_to_numpy_across_level_changes():
    # Slow and fast phases drive the controller up and down its ladder;
    # every level change clears the window.
    controller = DegradationController(
        scheme_ladder({"baseline": 1.0, "sw_pf": 0.8, "integrated": 0.65}),
        sla_ms=10.0, window=48, min_samples=4,
        escalate_margin=1.0, recover_margin=0.5, cooldown=8,
    )
    rng = np.random.default_rng(9)
    reference = deque(maxlen=48)
    changes = 0
    for phase in range(8):
        mean = 12.0 if phase % 2 == 0 else 1.0
        for value in np.round(rng.exponential(mean, size=150), 1).tolist():
            reference.append(value)
            change = controller.observe(0.0, value)
            if change is not None:
                # observe() inlines the same p95: it decided on this value.
                assert change.window_p95_ms == float(
                    np.percentile(list(reference), 95.0)
                )
                reference.clear()
                changes += 1
            want = (
                float(np.percentile(list(reference), 95.0)) if reference else 0.0
            )
            assert controller.window_p95() == want
    assert changes >= 4
