"""Router unit tests plus cluster-level conservation properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimConfig
from repro.errors import ConfigError
from repro.serving.cluster import (
    CLUSTER_OUTCOME_NAMES,
    ClusterConfig,
    ClusterSim,
)
from repro.serving.faults import ClusterFaultPlan, NodeCrash, NodeSlow
from repro.serving.router import (
    HealthPolicy,
    HealthTracker,
    HedgePolicy,
    LatencyWindow,
    Router,
)
from repro.serving.workload import poisson_arrivals


class TestLatencyWindow:
    def test_matches_numpy_percentile(self):
        window = LatencyWindow(64)
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3]
        for v in values:
            window.observe(v)
        for q in (50.0, 90.0, 95.0, 99.0):
            assert window.quantile(q) == pytest.approx(
                float(np.percentile(values, q))
            )

    def test_quantile_formula_is_pinned(self):
        """The one-branch lerp, bit for bit: hedge fire times depend on it.
        It is not numpy's two-branch lerp, which differs in the last bits
        on some windows."""
        rng = np.random.default_rng(7)
        differs = 0
        for n in range(2, 129):
            window = LatencyWindow(n)
            for value in rng.exponential(5.0, size=2 * n):
                window.observe(float(value))
            xs = sorted(window)
            for k in range(1, 81):
                q = 1.25 * k
                rank = (n - 1) * (q / 100.0)
                lo = int(rank)
                hi = min(lo + 1, n - 1)
                want = xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)
                got = window.quantile(q)
                assert got.hex() == want.hex(), (n, q)
                differs += got != float(np.percentile(xs, q))
        assert differs > 0

    def test_empty_window_returns_none(self):
        assert LatencyWindow(8).quantile(95.0) is None

    def test_ring_overwrites_oldest(self):
        window = LatencyWindow(3)
        for v in (100.0, 1.0, 2.0, 3.0):  # 100.0 must be evicted
            window.observe(v)
        assert window.quantile(100.0) == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            LatencyWindow(0)
        with pytest.raises(ConfigError):
            HedgePolicy(quantile=0.0)
        with pytest.raises(ConfigError):
            HedgePolicy(min_ms=0.0)
        with pytest.raises(ConfigError):
            HealthPolicy(eject_after=0)


class TestHealthTracker:
    def test_eject_after_consecutive_failures(self):
        health = HealthTracker(2, HealthPolicy(eject_after=3))
        assert not health.record_failure(0)
        assert not health.record_failure(0)
        assert health.record_failure(0)  # third strike ejects
        assert health.is_ejected(0)
        assert health.ejections == 1
        assert not health.record_failure(0)  # already out, no double-count

    def test_success_resets_the_count(self):
        health = HealthTracker(1, HealthPolicy(eject_after=2))
        health.record_failure(0)
        health.record_success(0)
        assert not health.record_failure(0)  # count restarted
        assert not health.is_ejected(0)

    def test_probe_readmits(self):
        health = HealthTracker(1, HealthPolicy(eject_after=1))
        health.record_failure(0)
        assert health.is_ejected(0)
        assert not health.record_probe(0, reachable=False)
        assert health.record_probe(0, reachable=True)
        assert not health.is_ejected(0)
        assert health.probes == 2

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4),
        st.lists(
            st.tuples(
                st.sampled_from(("failure", "success", "probe")),
                st.integers(0, 2),
                st.booleans(),
            ),
            max_size=60,
        ),
    )
    def test_ejected_node_has_failures(self, eject_after, ops):
        # The cluster loop skips record_success on a node whose count is
        # zero; that is exact only if no such node is ever ejected.
        health = HealthTracker(3, HealthPolicy(eject_after=eject_after))
        for op, node, reachable in ops:
            if op == "failure":
                health.record_failure(node)
            elif op == "success":
                health.record_success(node)
            else:
                health.record_probe(node, reachable)
            for n in range(3):
                assert not health.is_ejected(n) or health.fails[n] > 0


class TestRouter:
    def test_round_robin_rotates(self):
        health = HealthTracker(3, HealthPolicy())
        router = Router("round_robin", health)
        picks = [router.choose(0, [0, 1, 2], set()) for _ in range(4)]
        assert picks == [0, 1, 2, 0]

    def test_never_returns_tried_or_ejected(self):
        health = HealthTracker(3, HealthPolicy(eject_after=1))
        health.record_failure(2)
        router = Router("round_robin", health)
        assert router.choose(0, [0, 1, 2], {0}) == 1
        assert router.choose(0, [1, 2], {1}) is None  # 2 is ejected
        assert router.choose(0, [2], set()) is None

    def test_least_loaded_picks_minimum_with_id_tiebreak(self):
        health = HealthTracker(3, HealthPolicy())
        loads = [5.0, 2.0, 2.0]
        router = Router("least_loaded", health, loads=loads)
        assert router.choose(0, [0, 1, 2], set()) == 1  # tie -> lower id
        assert router.choose(0, [0, 1, 2], {1}) == 2
        loads[1] = 9.0  # read live at every decision
        assert router.choose(0, [0, 1, 2], set()) == 2

    def test_validation(self):
        health = HealthTracker(2, HealthPolicy())
        with pytest.raises(ConfigError):
            Router("magic", health)
        with pytest.raises(ConfigError):
            Router("least_loaded", health)  # needs a load estimator


def _run(arrivals, **kwargs):
    defaults = dict(
        num_nodes=4, cores_per_node=2, mean_service_ms=1.0, num_shards=8,
        replication=2, gather_width=2, hop_ms=0.05, call_timeout_ms=12.0,
        deadline_ms=50.0, seed=13,
    )
    defaults.update(kwargs)
    return ClusterSim(ClusterConfig(**defaults)).run(arrivals)


class TestRequestConservation:
    """Every request resolves to exactly one outcome; hedges deduplicate."""

    def _chaos_plan(self, horizon):
        return ClusterFaultPlan(
            [
                NodeCrash(1, 0.25 * horizon, 0.6 * horizon),
                NodeSlow(0, 0.3 * horizon, 0.8 * horizon, factor=6.0),
            ],
            seed=13,
        )

    def test_every_request_has_exactly_one_outcome(self):
        arrivals = poisson_arrivals(
            0.4, 900, SimConfig(seed=3).rng("t:cons")
        )
        res = _run(
            arrivals,
            faults=self._chaos_plan(float(arrivals[-1])),
            hedge=HedgePolicy(quantile=90.0, min_ms=2.0, window=64),
            max_outstanding=60,
        )
        # outcomes has one entry per offered request and every entry is a
        # valid terminal state (the -1 sentinel never survives the run).
        assert res.outcomes.size == arrivals.size
        assert np.all(res.outcomes >= 0)
        assert np.all(res.outcomes < len(CLUSTER_OUTCOME_NAMES))
        counts = res.outcome_counts
        assert sum(counts.values()) == arrivals.size
        # Completed requests (and only they) have finite quality latency.
        finite = np.isfinite(res.request_latency_ms)
        served = counts["completed"] + counts["degraded"]
        assert int(finite.sum()) == served

    def test_hedges_resolve_exactly_once(self):
        arrivals = poisson_arrivals(
            0.4, 900, SimConfig(seed=3).rng("t:cons")
        )
        res = _run(
            arrivals,
            faults=self._chaos_plan(float(arrivals[-1])),
            hedge=HedgePolicy(quantile=90.0, min_ms=2.0, window=64),
        )
        assert res.hedges_issued > 0
        # First completion wins; every other hedge attempt terminates as
        # wasted or failed — never delivered twice, never leaked.
        assert (
            res.hedges_won + res.hedges_wasted + res.hedges_failed
            == res.hedges_issued
        )

    def test_shed_requests_never_reach_nodes(self):
        arrivals = poisson_arrivals(
            0.05, 400, SimConfig(seed=3).rng("t:shed")
        )
        res = _run(arrivals, max_outstanding=8)
        counts = res.outcome_counts
        assert counts["shed"] > 0
        assert np.all(np.isinf(res.request_latency_ms[res.outcomes == 2]))


class TestJobsDeterminism:
    def test_cluster_rows_identical_across_jobs(self, tmp_path, capsys):
        """The cluster experiment exports byte-identical request logs
        whether it runs in-process or in a forked worker pool."""
        from repro.experiments.runner import main

        argv = [
            "cluster_resilience", "--scale", "0.01", "--num-requests", "200",
            "--batch-size", "8", "--num-batches", "1", "--num-nodes", "3",
            "--replication", "2",
        ]
        exports = []
        for jobs in ("1", "3"):
            log = tmp_path / f"req{jobs}.jsonl"
            assert main(
                argv + ["--jobs", jobs, "--request-log", str(log)]
            ) == 0
            exports.append(log.read_bytes())
        assert exports[0] == exports[1]
