"""Fault-injection tests: plan construction, determinism, serving behavior."""

import numpy as np
import pytest

import serving_oracle
from repro.errors import ConfigError
from repro.serving.faults import (
    ArrivalBurst,
    BandwidthDegradation,
    CoreFailure,
    CoreSlowdown,
    FaultPlan,
    Stragglers,
)
from repro.serving.server import (
    OUTCOME_COMPLETED,
    ServingPolicy,
    simulate_server,
)
from repro.serving.workload import poisson_arrivals


class TestFaultModels:
    def test_window_validation(self):
        with pytest.raises(ConfigError):
            CoreSlowdown(0, 10.0, 5.0, 2.0)
        with pytest.raises(ConfigError):
            CoreFailure(0, -1.0, 5.0)
        with pytest.raises(ConfigError):
            BandwidthDegradation(0.0, 10.0, 0.5)
        with pytest.raises(ConfigError):
            CoreSlowdown(-1, 0.0, 5.0, 2.0)

    def test_burst_validation_and_arrivals(self):
        with pytest.raises(ConfigError):
            ArrivalBurst(0.0, 0, 1.0)
        with pytest.raises(ConfigError):
            ArrivalBurst(0.0, 5, 0.0)
        burst = ArrivalBurst(100.0, 4, 2.0)
        assert np.array_equal(burst.arrivals(), [100.0, 102.0, 104.0, 106.0])

    def test_straggler_validation(self):
        with pytest.raises(ConfigError):
            Stragglers(1.5, 2.0)
        with pytest.raises(ConfigError):
            Stragglers(0.1, 0.5)
        with pytest.raises(ConfigError):
            Stragglers(0.1, 2.0, tail_alpha=-1.0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda v: BandwidthDegradation(0.0, 10.0, v),
            lambda v: BandwidthDegradation(v, 10.0, 2.0),
            lambda v: CoreSlowdown(0, 0.0, 10.0, v),
            lambda v: CoreSlowdown(0, v, 10.0, 2.0),
            lambda v: CoreFailure(0, v, 10.0),
            lambda v: ArrivalBurst(v, 5, 1.0),
            lambda v: ArrivalBurst(0.0, 5, v),
            lambda v: Stragglers(0.1, v),
            lambda v: Stragglers(0.1, 2.0, tail_alpha=v),
        ],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_values_rejected(self, make, value):
        # A NaN passes every ordered check, then breaks every comparison
        # the event loops make.
        with pytest.raises(ConfigError):
            make(value)

    @pytest.mark.parametrize(
        "make",
        [
            lambda end: BandwidthDegradation(0.0, end, 2.0),
            lambda end: CoreSlowdown(0, 0.0, end, 2.0),
            lambda end: CoreFailure(0, 0.0, end),
        ],
    )
    def test_window_end_may_be_inf_but_not_nan(self, make):
        with pytest.raises(ConfigError):
            make(float("nan"))
        assert make(float("inf")).end_ms == float("inf")  # permanent

    def test_unknown_fault_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan([object()])


class TestFaultPlan:
    def test_empty_plan(self):
        plan = FaultPlan()
        assert plan.is_empty
        assert plan.service_multiplier(0, 5.0) == 1.0
        assert not plan.core_down(0, 5.0)
        assert plan.next_available(0, 5.0) == 5.0

    def test_service_multiplier_composes(self):
        plan = FaultPlan(
            [
                CoreSlowdown(1, 10.0, 20.0, 2.0),
                BandwidthDegradation(15.0, 30.0, 3.0),
            ]
        )
        assert plan.service_multiplier(1, 12.0) == 2.0
        assert plan.service_multiplier(1, 16.0) == 6.0  # both windows active
        assert plan.service_multiplier(0, 16.0) == 3.0  # bandwidth hits all
        assert plan.service_multiplier(1, 25.0) == 3.0
        assert plan.service_multiplier(1, 30.0) == 1.0  # window end exclusive

    def test_failure_windows(self):
        plan = FaultPlan([CoreFailure(2, 10.0, 20.0), CoreFailure(2, 20.0, 25.0)])
        assert plan.core_down(2, 15.0)
        assert not plan.core_down(2, 25.0)
        assert not plan.core_down(0, 15.0)
        # Adjacent windows are skipped in one pass.
        assert plan.next_available(2, 12.0) == 25.0
        assert plan.next_available(2, 30.0) == 30.0

    def test_burst_injection_sorted_and_masked(self):
        plan = FaultPlan([ArrivalBurst(5.0, 3, 1.0)])
        arrivals = np.array([1.0, 4.0, 9.0])
        merged, mask = plan.inject_arrivals(arrivals)
        assert np.all(np.diff(merged) >= 0)
        assert merged.size == 6
        assert mask.sum() == 3
        assert np.array_equal(merged[mask], [5.0, 6.0, 7.0])

    def test_straggler_multipliers_deterministic(self):
        plan = FaultPlan([Stragglers(0.3, 4.0, tail_alpha=1.5)], seed=9)
        a = plan.straggler_multipliers(500)
        b = FaultPlan([Stragglers(0.3, 4.0, tail_alpha=1.5)], seed=9).straggler_multipliers(500)
        assert np.array_equal(a, b)
        assert np.all(a >= 1.0)
        hit = a > 1.0
        assert 0.1 < hit.mean() < 0.5
        assert np.all(a[hit] >= 4.0)  # pareto tail only adds
        other = FaultPlan([Stragglers(0.3, 4.0, tail_alpha=1.5)], seed=10)
        assert not np.array_equal(a, other.straggler_multipliers(500))

    def test_windows_reported(self):
        plan = FaultPlan(
            [
                CoreFailure(1, 5.0, 10.0),
                BandwidthDegradation(0.0, 4.0, 2.0),
                ArrivalBurst(2.0, 10, 0.5),
            ]
        )
        names = {w[0] for w in plan.windows()}
        assert names == {"core_failure:1", "bandwidth_degradation", "arrival_burst"}


class TestNoFaultByteIdentity:
    """Acceptance: fault_plan=None reproduces the pre-resilience result
    exactly: the oracle's plain heap loop (``tests/serving_oracle.py``)."""

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_differential_against_legacy(self, seed):
        arrivals = poisson_arrivals(3.0, 800, np.random.default_rng(seed))
        legacy = serving_oracle.simulate(
            arrivals, 10.0, 4, np.random.default_rng(seed + 1)
        )
        result = simulate_server(arrivals, 10.0, 4, np.random.default_rng(seed + 1))
        assert np.array_equal(result.latencies_ms, legacy.latencies_ms)
        assert np.array_equal(result.waits_ms, legacy.waits_ms)
        assert np.array_equal(result.services_ms, legacy.services_ms)

    def test_empty_plan_and_null_policy_stay_on_fast_path(self, rng):
        arrivals = poisson_arrivals(3.0, 300, np.random.default_rng(0))
        a = simulate_server(arrivals, 10.0, 4, np.random.default_rng(1))
        b = simulate_server(
            arrivals, 10.0, 4, np.random.default_rng(1),
            fault_plan=FaultPlan(), policy=ServingPolicy(),
        )
        assert np.array_equal(a.latencies_ms, b.latencies_ms)
        assert np.array_equal(a.services_ms, b.services_ms)

    def test_neutral_event_loop_matches_fast_path(self):
        """A deadline policy forces the event loop; with a huge deadline it
        must reproduce the fast path's schedule."""
        arrivals = poisson_arrivals(3.0, 500, np.random.default_rng(2))
        fast = simulate_server(arrivals, 10.0, 4, np.random.default_rng(3))
        loop = simulate_server(
            arrivals, 10.0, 4, np.random.default_rng(3),
            policy=ServingPolicy(deadline_ms=1e12),
        )
        assert np.allclose(loop.latencies_ms, fast.latencies_ms)
        assert np.allclose(loop.waits_ms, fast.waits_ms)
        assert np.array_equal(loop.core_ids, fast.core_ids)
        assert np.all(loop.outcomes == OUTCOME_COMPLETED)


class TestFaultedServing:
    def test_bandwidth_degradation_raises_tail(self):
        arrivals = poisson_arrivals(3.0, 1000, np.random.default_rng(0))
        clean = simulate_server(arrivals, 10.0, 4, np.random.default_rng(1))
        plan = FaultPlan([BandwidthDegradation(500.0, 1500.0, 4.0)], seed=1)
        faulted = simulate_server(
            arrivals, 10.0, 4, np.random.default_rng(1), fault_plan=plan
        )
        assert faulted.p95_ms > clean.p95_ms * 2

    def test_core_failure_raises_tail(self):
        arrivals = poisson_arrivals(3.5, 800, np.random.default_rng(0))
        clean = simulate_server(arrivals, 10.0, 4, np.random.default_rng(1))
        plan = FaultPlan(
            [CoreFailure(0, 300.0, 1500.0), CoreFailure(1, 300.0, 1500.0)], seed=1
        )
        faulted = simulate_server(
            arrivals, 10.0, 4, np.random.default_rng(1), fault_plan=plan
        )
        assert faulted.p95_ms > clean.p95_ms
        # Everything still completes (failed cores repair).
        assert faulted.outcome_count("completed") == 800

    def test_no_request_starts_on_downed_core(self):
        plan = FaultPlan([CoreFailure(0, 0.0, 10_000.0)], seed=1)
        arrivals = poisson_arrivals(5.0, 200, np.random.default_rng(0))
        result = simulate_server(
            arrivals, 8.0, 2, np.random.default_rng(1), fault_plan=plan
        )
        starts = arrivals[result.outcomes == OUTCOME_COMPLETED] + result.waits_ms
        on_failed_core = result.core_ids == 0
        assert np.all(starts[on_failed_core] >= 10_000.0)

    def test_burst_injects_extra_requests(self):
        arrivals = poisson_arrivals(5.0, 300, np.random.default_rng(0))
        plan = FaultPlan([ArrivalBurst(200.0, 100, 0.5)], seed=1)
        result = simulate_server(
            arrivals, 8.0, 4, np.random.default_rng(1), fault_plan=plan
        )
        assert result.offered_requests == 400
        assert result.injected.sum() == 100

    def test_faulted_run_is_deterministic(self):
        arrivals = poisson_arrivals(3.0, 600, np.random.default_rng(0))
        plan = FaultPlan(
            [
                BandwidthDegradation(200.0, 900.0, 3.0),
                Stragglers(0.1, 5.0, tail_alpha=1.2),
                ArrivalBurst(400.0, 50, 1.0),
            ],
            seed=42,
        )
        policy = ServingPolicy(
            deadline_ms=80.0, timeout_ms=40.0, max_retries=2, max_queue_depth=30
        )
        runs = [
            simulate_server(
                arrivals, 10.0, 4, np.random.default_rng(1),
                fault_plan=FaultPlan(
                    [
                        BandwidthDegradation(200.0, 900.0, 3.0),
                        Stragglers(0.1, 5.0, tail_alpha=1.2),
                        ArrivalBurst(400.0, 50, 1.0),
                    ],
                    seed=42,
                ),
                policy=policy,
            )
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].outcomes, runs[1].outcomes)
        assert np.array_equal(runs[0].latencies_ms, runs[1].latencies_ms)
        assert np.array_equal(runs[0].retry_counts, runs[1].retry_counts)
        del plan


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ServingPolicy(deadline_ms=0.0)
        with pytest.raises(ConfigError):
            ServingPolicy(timeout_ms=-1.0)
        with pytest.raises(ConfigError):
            ServingPolicy(max_retries=-1)
        with pytest.raises(ConfigError):
            ServingPolicy(max_queue_depth=0)
        with pytest.raises(ConfigError):
            # Retries without a timeout can never trigger.
            ServingPolicy(max_retries=2)

    @pytest.mark.parametrize(
        "field", ["deadline_ms", "timeout_ms", "retry_backoff_ms", "retry_jitter"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ServingPolicy(**{field: value})

    def test_for_sla(self):
        from repro.serving.sla import SLA_TARGETS

        policy = ServingPolicy.for_sla(SLA_TARGETS["RMC1"], max_retries=1,
                                       timeout_ms=50.0)
        assert policy.deadline_ms == 100.0
        assert policy.timeout_ms == 50.0
        assert policy.max_retries == 1

    def test_queue_depth_sheds(self):
        arrivals = poisson_arrivals(1.0, 400, np.random.default_rng(0))
        policy = ServingPolicy(max_queue_depth=5)
        result = simulate_server(
            arrivals, 20.0, 2, np.random.default_rng(1), policy=policy
        )
        assert result.outcome_count("shed") > 0
        # The queue bound caps waiting: completed requests never waited
        # longer than the backlog the bound admits (plus one service).
        assert result.outcome_count("completed") + result.outcome_count("shed") == 400

    def test_timeout_without_retries(self):
        arrivals = poisson_arrivals(1.0, 300, np.random.default_rng(0))
        policy = ServingPolicy(timeout_ms=15.0)
        result = simulate_server(
            arrivals, 20.0, 2, np.random.default_rng(1), policy=policy
        )
        assert result.outcome_count("timed_out") > 0
        # No completed request waited past the timeout.
        assert np.all(result.waits_ms <= 15.0 + 1e-9)

    def test_retries_recover_some_requests(self):
        arrivals = poisson_arrivals(2.0, 300, np.random.default_rng(0))
        base = ServingPolicy(timeout_ms=25.0)
        retrying = ServingPolicy(
            timeout_ms=25.0, max_retries=3, retry_backoff_ms=30.0
        )
        plain = simulate_server(
            arrivals, 12.0, 3, np.random.default_rng(1), policy=base
        )
        retried = simulate_server(
            arrivals, 12.0, 3, np.random.default_rng(1), policy=retrying
        )
        assert retried.retries_total > 0
        assert (
            retried.outcome_count("completed") >= plain.outcome_count("completed")
        )

    def test_goodput_counts_deadline(self):
        arrivals = poisson_arrivals(1.5, 400, np.random.default_rng(0))
        policy = ServingPolicy(deadline_ms=40.0, shed_expired=False)
        result = simulate_server(
            arrivals, 15.0, 2, np.random.default_rng(1), policy=policy
        )
        expected = np.count_nonzero(result.latencies_ms <= 40.0) / 400
        assert result.goodput == pytest.approx(expected)
        assert 0.0 < result.goodput < 1.0

    def test_latency_decomposition_holds_under_faults(self):
        arrivals = poisson_arrivals(2.0, 500, np.random.default_rng(0))
        plan = FaultPlan(
            [BandwidthDegradation(100.0, 600.0, 2.5), Stragglers(0.05, 4.0)],
            seed=3,
        )
        policy = ServingPolicy(timeout_ms=60.0, max_retries=1)
        result = simulate_server(
            arrivals, 10.0, 4, np.random.default_rng(1),
            fault_plan=plan, policy=policy,
        )
        assert np.allclose(
            result.latencies_ms, result.waits_ms + result.services_ms
        )
        assert np.all(result.waits_ms >= -1e-9)
