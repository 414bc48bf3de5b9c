"""Differential tests: the package's serving loops vs the frozen oracle.

The shipped loops (:mod:`repro.serving.fastserve`, run by
``simulate_server``) must be **byte identical** to the per-event heap
loops kept in ``tests/serving_oracle.py`` on every path — plain
dispatch, fault injection, retries/backoff, load shedding, and the
degradation controller — across core counts on both sides of the wave
-speculation gate.  These tests run every scenario through both and
compare raw float bits, outcome codes, retry counts, core assignments,
and controller event streams.  Below, ``"fast"`` names the package and
``"reference"`` the oracle.
"""

import numpy as np
import pytest

import serving_oracle
from repro.config import SimConfig
from repro.obs.hooks import Observation, session
from repro.obs.metrics import Histogram
from repro.obs.requests import RequestLog
from repro.serving import server
from repro.serving.degradation import DegradationController, scheme_ladder
from repro.serving.faults import (
    ArrivalBurst,
    BandwidthDegradation,
    CoreFailure,
    CoreSlowdown,
    FaultPlan,
    Stragglers,
)
from repro.serving.server import ServingPolicy
from repro.serving.workload import poisson_arrivals

SIMULATORS = serving_oracle.SIMULATORS
CORE_COUNTS = (1, 4, 24)


def _arrivals(config, num_requests, num_cores, utilization=0.85):
    interarrival = 5.0 / (num_cores * utilization)
    return poisson_arrivals(
        interarrival, num_requests, config.rng("diff:arrivals")
    )


def _run(engine, arrivals, num_cores, config, **kwargs):
    # Fresh rng per run: both draws must be identical streams.
    return SIMULATORS[engine](
        arrivals, 5.0, num_cores, config.rng("diff:service"), **kwargs
    )


def _plan(horizon_ms, num_cores, seed=42):
    return FaultPlan(
        [
            CoreSlowdown(0, 0.2 * horizon_ms, 0.5 * horizon_ms, 3.0),
            CoreFailure(num_cores - 1, 0.3 * horizon_ms, 0.6 * horizon_ms),
            BandwidthDegradation(0.4 * horizon_ms, 0.7 * horizon_ms, 2.0),
            ArrivalBurst(0.5 * horizon_ms, 60, 0.2),
            Stragglers(0.1, 4.0, tail_alpha=1.5),
        ],
        seed=seed,
    )


def _policy():
    return ServingPolicy(
        deadline_ms=25.0,
        timeout_ms=20.0,
        max_retries=2,
        retry_backoff_ms=2.0,
        max_queue_depth=64,
    )


def _controller():
    ladder = scheme_ladder(
        {"baseline": 1.0, "sw_pf": 0.8, "integrated": 0.65}, batch_scale=0.6
    )
    return DegradationController(
        ladder, sla_ms=25.0, window=32, min_samples=8,
        escalate_margin=0.8, recover_margin=0.4, cooldown=64,
    )


def assert_identical(fast, ref):
    """Byte-level equality of everything the simulation computes."""
    for attr in ("latencies_ms", "waits_ms", "services_ms", "core_ids"):
        a, b = getattr(fast, attr), getattr(ref, attr)
        assert a.tobytes() == b.tobytes(), f"{attr} diverged"
    for attr in ("outcomes", "retry_counts", "injected"):
        a, b = getattr(fast, attr), getattr(ref, attr)
        if a is None or b is None:
            assert a is None and b is None
        else:
            assert np.array_equal(a, b), f"{attr} diverged"
    assert fast.degradation_events == ref.degradation_events
    assert fast.final_degradation_level == ref.final_degradation_level


class TestPlainPath:
    @pytest.mark.parametrize("num_cores", CORE_COUNTS)
    def test_plain_byte_identical(self, num_cores):
        config = SimConfig(seed=11)
        arrivals = _arrivals(config, 600, num_cores)
        fast = _run("fast", arrivals, num_cores, config)
        ref = _run("reference", arrivals, num_cores, config)
        assert_identical(fast, ref)

    def test_wave_gate_cores_byte_identical(self):
        # 64 cores sits well above the wave-speculation gate; the wave
        # path (not the heap fallback) must still be exact.
        config = SimConfig(seed=12)
        num_cores = 64
        arrivals = _arrivals(config, 4000, num_cores, utilization=0.95)
        fast = _run("fast", arrivals, num_cores, config)
        ref = _run("reference", arrivals, num_cores, config)
        assert_identical(fast, ref)

    def test_heavy_tail_services_byte_identical(self):
        # High service variance defeats the speculation often, exercising
        # the probation fallback to the python heap loop.
        config = SimConfig(seed=13)
        num_cores = 32
        arrivals = _arrivals(config, 2000, num_cores)
        fast = _run("fast", arrivals, num_cores, config, service_cv=2.0)
        ref = _run("reference", arrivals, num_cores, config, service_cv=2.0)
        assert_identical(fast, ref)


def _dyadic_services(mean_ms, count, rng, cv=0.0):
    """Multiples of 0.25 ms with mean 5 ms: sums of grid times stay exact."""
    return 0.25 * rng.integers(4, 37, size=count)


class TestPlainTieGrid:
    """The wave dispatcher where core free times tie exactly.

    Arrivals snap to a 0.25 ms grid and every service is a constant or a
    multiple of 0.25 ms, so free times collide and the ``(free time, core
    id)`` order, not the times alone, picks each core.  The request counts
    leave a short last wave, or are fewer than the cores.
    """

    @pytest.mark.parametrize("services", ["constant", "dyadic"])
    @pytest.mark.parametrize("utilization", [0.5, 0.9, 1.3])
    @pytest.mark.parametrize("num_cores", [16, 17, 64])
    @pytest.mark.parametrize("waves", [0, 40])
    def test_tied_free_times_byte_identical(
        self, num_cores, utilization, services, waves, monkeypatch
    ):
        config = SimConfig(seed=14)
        num_requests = waves * num_cores + num_cores // 2 + 1
        arrivals = _arrivals(config, num_requests, num_cores, utilization)
        arrivals = np.floor(arrivals * 4.0) / 4.0
        if services == "dyadic":
            monkeypatch.setattr(server, "lognormal_services", _dyadic_services)
            monkeypatch.setattr(
                serving_oracle, "lognormal_services", _dyadic_services
            )
        runs = {}
        for engine in ("fast", "reference"):
            log = RequestLog()
            with session(Observation(requests=log)) as obs:
                result = _run(engine, arrivals, num_cores, config, service_cv=0.0)
            runs[engine] = (result, log.runs[0].records.lifecycles(), obs)
        (fast, fast_cols, obs), (ref, ref_cols, _) = runs["fast"], runs["reference"]
        assert_identical(fast, ref)
        assert fast_cols.start.tobytes() == ref_cols.start.tobytes()
        assert fast_cols.node.tobytes() == ref_cols.node.tobytes()
        # Both latency histograms count from one bucket pass; each must
        # equal a histogram fed the latencies on its own.
        fresh = Histogram()
        fresh.observe_many(fast.latencies_ms)
        logged = obs.metrics.histogram("serving.latency_ms")
        for hist in (fast.latency_hist, logged):
            assert hist.buckets.tobytes() == fresh.buckets.tobytes()
            assert (hist.count, hist.min, hist.max) == (
                fresh.count, fresh.min, fresh.max,
            )
        assert fast.latency_hist.sum == fresh.sum


class TestResilientPath:
    @pytest.mark.parametrize("num_cores", CORE_COUNTS)
    def test_faults_retries_shedding_byte_identical(self, num_cores):
        config = SimConfig(seed=21)
        arrivals = _arrivals(config, 500, num_cores)
        horizon = float(arrivals[-1])
        plan = _plan(horizon, num_cores)
        fast = _run(
            "fast", arrivals, num_cores, config, fault_plan=plan,
            policy=_policy(),
        )
        ref = _run(
            "reference", arrivals, num_cores, config, fault_plan=plan,
            policy=_policy(),
        )
        assert_identical(fast, ref)
        # The scenario must actually exercise the interesting paths.
        assert ref.retries_total > 0
        assert ref.outcome_count("timed_out") + ref.outcome_count("shed") > 0

    @pytest.mark.parametrize("num_cores", CORE_COUNTS)
    def test_degradation_controller_byte_identical(self, num_cores):
        config = SimConfig(seed=22)
        arrivals = _arrivals(config, 500, num_cores, utilization=1.1)
        horizon = float(arrivals[-1])
        plan = _plan(horizon, num_cores)
        fast = _run(
            "fast", arrivals, num_cores, config, fault_plan=plan,
            policy=_policy(), controller=_controller(),
        )
        ref = _run(
            "reference", arrivals, num_cores, config, fault_plan=plan,
            policy=_policy(), controller=_controller(),
        )
        assert_identical(fast, ref)
        assert len(ref.degradation_events) > 0

    def test_policy_only_byte_identical(self):
        config = SimConfig(seed=23)
        num_cores = 8
        arrivals = _arrivals(config, 400, num_cores, utilization=1.3)
        fast = _run("fast", arrivals, num_cores, config, policy=_policy())
        ref = _run("reference", arrivals, num_cores, config, policy=_policy())
        assert_identical(fast, ref)


@pytest.mark.parametrize("engine", sorted(SIMULATORS))
def test_retry_reclaims_its_stale_queue_slot(engine):
    """A retry that re-arrives before the dispatcher has passed its old
    queue slot takes that slot back (the queue is cancelled lazily).

    One core, service exactly 10 ms, queue timeout 5 ms, one retry after
    1 ms.  Request 0 runs over [0, 10).  Request 1 (arrives at 1) times out
    at 6 and re-arrives at 7, after request 2 (arrives at 6.5) joined the
    queue.  When the core frees at 10 the dispatcher meets request 1's old
    slot first and serves it; request 2 then waits out its own timeout and
    retry.  A strictly FIFO re-enqueue would serve request 2 at 10 and
    time request 1 out instead.
    """
    policy = ServingPolicy(
        timeout_ms=5.0, max_retries=1, retry_backoff_ms=1.0, retry_jitter=0.0
    )
    result = SIMULATORS[engine](
        np.array([0.0, 1.0, 6.5]), 10.0, 1, np.random.default_rng(0),
        service_cv=0.0, policy=policy,
    )
    assert result.outcomes.tolist() == [0, 0, 2]
    assert result.retry_counts.tolist() == [0, 1, 1]
    assert result.waits_ms.tolist() == [0.0, 9.0]


class TestWindowP95:
    def test_bitwise_equal_to_numpy_percentile(self):
        # The controller's pure-python p95 replaced np.percentile for
        # speed; it must stay bit-equal on every window size.
        from repro.serving.degradation import DegradationLevel

        rng = np.random.default_rng(5)
        for n in list(range(1, 65)) + [97, 128]:
            window = rng.exponential(10.0, size=n)
            controller = DegradationController(
                [DegradationLevel("baseline", 1.0)],
                sla_ms=10.0, window=256, min_samples=1,
            )
            for value in window:
                controller._latencies.append(float(value))
            got = controller.window_p95()
            want = float(np.percentile(np.array(controller._latencies), 95.0))
            assert got == want, f"n={n}: {got!r} != {want!r}"
