"""Serving-stack tests: SLA registry, load generator, M/G/c server."""

import numpy as np
import pytest

from repro.config import SimConfig
from repro.errors import ConfigError
from repro.model.configs import get_model
from repro.serving.latency import (
    latency_percentile,
    sla_compliant_region,
    sweep_arrival_times,
)
from repro.serving.server import ServerSim, lognormal_services, simulate_server
from repro.serving.sla import SLA_TARGETS, sla_for_model
from repro.serving.workload import poisson_arrivals


class TestSLA:
    def test_table1_contents(self):
        assert SLA_TARGETS["RMC1"].sla_ms == 100.0
        assert SLA_TARGETS["RMC2"].sla_ms == 400.0
        assert SLA_TARGETS["RMC3"].sla_ms == 100.0
        assert SLA_TARGETS["RMC2"].bottleneck == "embedding"
        assert SLA_TARGETS["RMC3"].bottleneck == "mlp"

    def test_sla_for_model(self):
        assert sla_for_model(get_model("rm2_1")).sla_ms == 400.0
        assert sla_for_model(get_model("rm1")).sla_ms == 100.0

    def test_meets(self):
        target = SLA_TARGETS["RMC1"]
        assert target.meets(99.0)
        assert not target.meets(101.0)
        with pytest.raises(ConfigError):
            target.meets(-1.0)

    def test_meets_boundary_is_inclusive(self):
        # Exactly at the target satisfies the SLA (<=, not <).
        for target in SLA_TARGETS.values():
            assert target.meets(target.sla_ms)
        assert SLA_TARGETS["RMC1"].meets(0.0)

    def test_unknown_category_rejected(self):
        import dataclasses

        bogus = dataclasses.replace(get_model("rm1"), category="RMC9")
        with pytest.raises(ConfigError):
            sla_for_model(bogus)


class TestWorkload:
    def test_arrivals_are_sorted_and_positive(self, rng):
        arrivals = poisson_arrivals(10.0, 500, rng)
        assert arrivals.shape == (500,)
        assert np.all(np.diff(arrivals) >= 0)
        assert arrivals[0] > 0

    def test_mean_interarrival(self, rng):
        arrivals = poisson_arrivals(10.0, 20_000, rng)
        assert np.mean(np.diff(arrivals)) == pytest.approx(10.0, rel=0.05)

    def test_validation(self, rng):
        with pytest.raises(ConfigError):
            poisson_arrivals(0.0, 10, rng)
        with pytest.raises(ConfigError):
            poisson_arrivals(1.0, 0, rng)


class TestServer:
    def test_lognormal_services_mean_and_cv(self, rng):
        services = lognormal_services(50.0, 50_000, rng, cv=0.2)
        assert np.mean(services) == pytest.approx(50.0, rel=0.02)
        assert np.std(services) / np.mean(services) == pytest.approx(0.2, rel=0.1)

    def test_zero_cv_is_deterministic(self, rng):
        services = lognormal_services(50.0, 10, rng, cv=0.0)
        assert np.all(services == 50.0)

    def test_unloaded_server_has_no_queueing(self, rng):
        arrivals = poisson_arrivals(1000.0, 200, rng)  # very light load
        result = simulate_server(arrivals, 10.0, num_cores=4, rng=rng)
        assert np.all(result.waits_ms < 1e-9)
        assert result.mean_ms == pytest.approx(10.0, rel=0.1)

    def test_saturated_server_queues(self, rng):
        arrivals = poisson_arrivals(1.0, 500, rng)  # offered >> capacity
        result = simulate_server(arrivals, 10.0, num_cores=2, rng=rng)
        assert result.p95_ms > 50.0
        assert result.utilization > 1.0

    def test_more_cores_cut_tail(self, rng):
        arrivals = poisson_arrivals(5.0, 1000, np.random.default_rng(0))
        few = simulate_server(arrivals, 18.0, 4, np.random.default_rng(1))
        many = simulate_server(arrivals, 18.0, 16, np.random.default_rng(1))
        assert many.p95_ms < few.p95_ms

    def test_latency_decomposition(self, rng):
        arrivals = poisson_arrivals(5.0, 300, rng)
        result = simulate_server(arrivals, 8.0, 2, rng)
        assert np.allclose(result.latencies_ms, result.waits_ms + result.services_ms)

    def test_validation(self, rng):
        with pytest.raises(ConfigError):
            simulate_server(np.array([1.0]), 5.0, 0, rng)
        with pytest.raises(ConfigError):
            simulate_server(np.array([2.0, 1.0]), 5.0, 1, rng)
        for bad in ([0.0, np.nan, 1.0], [0.0, 1.0, np.inf]):
            with pytest.raises(ConfigError):
                simulate_server(np.array(bad), 5.0, 1, rng)
        with pytest.raises(ConfigError):
            lognormal_services(0.0, 5, rng)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["mean_service_ms", "service_cv"])
    def test_non_finite_service_rejected_at_construction(self, name, value):
        # A NaN mean or CV would run and return NaN latencies.
        kwargs = {"mean_service_ms": 5.0, "num_cores": 2, name: value}
        with pytest.raises(ConfigError, match="must be finite"):
            ServerSim(**kwargs)

    @pytest.mark.parametrize(
        "kwargs", [{"mean_service_ms": 0.0}, {"service_cv": -0.1}]
    )
    def test_bad_service_rejected_at_construction(self, kwargs):
        with pytest.raises(ConfigError):
            ServerSim(**{"mean_service_ms": 5.0, "num_cores": 2, **kwargs})


class TestLatencyAnalysis:
    def test_percentile(self):
        assert latency_percentile(range(101), 95) == pytest.approx(95.0)
        with pytest.raises(ConfigError):
            latency_percentile([], 95)
        with pytest.raises(ConfigError):
            latency_percentile([1.0], 150)

    def test_sweep_monotone_in_arrival_time(self):
        sweep = sweep_arrival_times(
            mean_service_ms=20.0,
            arrival_times_ms=[2.0, 5.0, 40.0],
            num_cores=2,
            num_requests=800,
            config=SimConfig(seed=4),
        )
        p95s = [sweep[a].p95_ms for a in (2.0, 5.0, 40.0)]
        assert p95s[0] > p95s[-1]  # faster arrivals -> worse tail

    def test_sla_compliant_region(self):
        sweep = sweep_arrival_times(
            20.0, [2.0, 15.0, 40.0], num_cores=2, num_requests=800,
            config=SimConfig(seed=4),
        )
        fastest, slowest = sla_compliant_region(sweep, sla_ms=100.0)
        assert fastest <= 40.0
        assert slowest == 40.0

    def test_region_empty_when_sla_impossible(self):
        sweep = sweep_arrival_times(
            20.0, [1.0], num_cores=1, num_requests=500, config=SimConfig(seed=4)
        )
        fastest, slowest = sla_compliant_region(sweep, sla_ms=0.001)
        assert fastest == float("inf")

    def test_region_validation(self):
        with pytest.raises(ConfigError):
            sla_compliant_region({}, 0.0)


def test_server_result_empty_latencies():
    from repro.serving.server import ServerResult

    empty = ServerResult(
        latencies_ms=np.array([]),
        waits_ms=np.array([]),
        services_ms=np.array([]),
        num_cores=2,
        offered_interarrival_ms=1.0,
    )
    # Degenerate inputs yield 0.0, matching CacheStats.hit_rate's convention.
    assert empty.percentile(95.0) == 0.0
    assert empty.p50_ms == 0.0
    assert empty.p95_ms == 0.0
    assert empty.p99_ms == 0.0
    assert empty.mean_ms == 0.0
    assert empty.utilization == 0.0


def test_single_arrival_defines_no_rate():
    # n=1 convention: one arrival has no inter-arrival time, so the result
    # reports 0.0 and utilization degrades to 0.0 instead of dividing by a
    # bogus rate (or by zero).
    rng = np.random.default_rng(0)
    result = simulate_server(np.array([5.0]), 10.0, num_cores=2, rng=rng)
    assert result.offered_interarrival_ms == 0.0
    assert result.utilization == 0.0
    assert result.latencies_ms.size == 1


def test_fast_path_outcome_accounting():
    # The fast path never sheds or times out; the outcome API still works.
    rng = np.random.default_rng(1)
    arrivals = poisson_arrivals(10.0, 50, rng)
    result = simulate_server(arrivals, 5.0, num_cores=2, rng=rng)
    assert result.outcomes is None
    assert result.outcome_count("completed") == 50
    assert result.outcome_count("shed") == 0
    assert result.outcome_counts["timed_out"] == 0
    assert result.offered_requests == 50
    assert result.retries_total == 0
    assert result.goodput == 1.0
    with pytest.raises(ConfigError):
        result.outcome_count("vanished")


@pytest.mark.parametrize("seed", range(5))
def test_server_invariants_randomized(seed):
    """Randomized invariant check over the queueing simulation.

    For any seeded workload: latency decomposes exactly into wait +
    service, no request starts before it arrives, and each core serves
    its requests back to back in FIFO order (start >= previous
    completion on the same core).
    """
    rng = np.random.default_rng(seed)
    num_cores = int(rng.integers(1, 6))
    n = int(rng.integers(50, 400))
    arrivals = poisson_arrivals(float(rng.uniform(1.0, 20.0)), n, rng)
    result = simulate_server(
        arrivals, float(rng.uniform(2.0, 30.0)), num_cores, rng
    )
    assert np.allclose(result.latencies_ms, result.waits_ms + result.services_ms)
    assert np.all(result.waits_ms >= -1e-12)
    starts = arrivals + result.waits_ms
    completions = starts + result.services_ms
    assert result.core_ids is not None
    assert set(np.unique(result.core_ids)) <= set(range(num_cores))
    for core in range(num_cores):
        on_core = result.core_ids == core
        # FIFO per core: a request starts only after the previous one on
        # the same core completes (with float tolerance).
        assert np.all(
            starts[on_core][1:] >= completions[on_core][:-1] - 1e-9
        )


def test_server_result_percentile_properties_consistent():
    rng = np.random.default_rng(3)
    arrivals = np.sort(rng.uniform(0.0, 50.0, size=200))
    result = simulate_server(arrivals, mean_service_ms=1.0, num_cores=4, rng=rng)
    assert result.p50_ms == result.percentile(50.0)
    assert result.p99_ms == result.percentile(99.0)
    assert result.latency_hist is not None
    assert result.latency_hist.count == 200
    # The log2-bucket estimate brackets the exact percentile within 2x.
    exact = result.percentile(95.0)
    approx = result.latency_hist.percentile(95.0)
    assert approx <= exact * 2.0
    assert approx >= exact / 2.0
