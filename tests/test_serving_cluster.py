"""Cluster serving tests: delegation, sharding, failover, hedging."""

import numpy as np
import pytest

import serving_oracle
from repro.config import SimConfig
from repro.errors import ConfigError
from repro.serving.cluster import (
    CL_COMPLETED,
    CL_DEGRADED,
    CL_FAILED,
    ClusterConfig,
    ClusterSim,
    ShardMap,
)
from repro.serving.degradation import DegradationController, scheme_ladder
from repro.serving.faults import (
    ClusterFaultPlan,
    NodeCrash,
    NodePartition,
    NodeSlow,
    NodeTenant,
)
from repro.serving.router import HedgePolicy
from repro.serving.workload import poisson_arrivals


def _arrivals(n=600, interarrival=0.5, seed=7):
    return poisson_arrivals(interarrival, n, SimConfig(seed=seed).rng("t:arr"))


def _cluster(arrivals, **kwargs):
    defaults = dict(
        num_nodes=4, cores_per_node=2, mean_service_ms=1.0, num_shards=8,
        replication=2, gather_width=2, hop_ms=0.05, call_timeout_ms=12.0,
        deadline_ms=50.0, seed=11,
    )
    defaults.update(kwargs)
    return ClusterSim(ClusterConfig(**defaults)).run(arrivals)


#: The bare server the 1-node cluster must equal: the package
#: (``"fast"``) and the heap-loop oracle (``"reference"``).
SIMULATORS = serving_oracle.SIMULATORS


class TestSingleBoxDelegation:
    """A 1-node replication-1 cluster IS the bare server, byte for byte."""

    @pytest.mark.parametrize("engine", sorted(SIMULATORS))
    def test_plain_path_byte_identical(self, engine):
        arrivals = _arrivals(400)
        direct = SIMULATORS[engine](
            arrivals, 2.0, 3, SimConfig(seed=5).rng("t:svc")
        )
        res = ClusterSim(
            ClusterConfig(
                num_nodes=1, cores_per_node=3, mean_service_ms=2.0,
                replication=1, gather_width=1, num_shards=1,
            )
        ).run(arrivals, SimConfig(seed=5).rng("t:svc"))
        assert res.local is not None
        assert np.array_equal(res.local.latencies_ms, direct.latencies_ms)
        assert np.array_equal(res.local.services_ms, direct.services_ms)
        assert np.array_equal(res.latencies_ms, direct.latencies_ms)
        assert np.all(res.outcomes == CL_COMPLETED)

    @pytest.mark.parametrize("engine", sorted(SIMULATORS))
    def test_controller_path_byte_identical(self, engine):
        arrivals = _arrivals(400)
        ladder = scheme_ladder(
            {"baseline": 1.0, "sw_pf": 0.8, "integrated": 0.65},
            batch_scale=0.6,
        )

        def controller():
            return DegradationController(
                ladder, sla_ms=25.0, window=48, min_samples=12,
                escalate_margin=0.75, recover_margin=0.4, cooldown=256,
            )

        direct = SIMULATORS[engine](
            arrivals, 2.0, 3, SimConfig(seed=5).rng("t:svc"),
            controller=controller(),
        )
        res = ClusterSim(
            ClusterConfig(
                num_nodes=1, cores_per_node=3, mean_service_ms=2.0,
                replication=1, gather_width=1, num_shards=1,
                controller_factory=lambda node: controller(),
            )
        ).run(arrivals, SimConfig(seed=5).rng("t:svc"))
        assert res.local is not None
        assert np.array_equal(res.local.latencies_ms, direct.latencies_ms)
        assert np.array_equal(res.local.outcomes, direct.outcomes)
        assert res.local.outcome_counts == direct.outcome_counts


class TestShardMap:
    def test_striped_placement(self):
        smap = ShardMap(
            ClusterConfig(num_nodes=4, num_shards=6, replication=2,
                          placement="striped")
        )
        assert smap.replicas[0] == [0, 1]
        assert smap.replicas[5] == [1, 2]
        for replicas in smap.replicas:
            assert len(set(replicas)) == len(replicas)

    def test_hotness_places_hottest_on_cache_rich_node(self):
        smap = ShardMap(
            ClusterConfig(
                num_nodes=4, num_shards=8, replication=1,
                placement="hotness", cache_scores=(0.5, 1.0, 0.6, 0.9),
            )
        )
        # Shard 0 is the hottest (Zipf rank order) and must claim the
        # node with the largest cache score.
        assert smap.replicas[0] == [1]

    def test_hotness_is_zipf_normalized(self):
        smap = ShardMap(ClusterConfig(num_shards=8))
        assert smap.hotness[0] == max(smap.hotness)
        assert np.all(np.diff(smap.hotness) < 0)
        assert smap.hotness.sum() == pytest.approx(1.0)

    def test_call_multiplier_penalizes_cache_poor_nodes(self):
        smap = ShardMap(
            ClusterConfig(num_nodes=2, cache_scores=(1.0, 0.5),
                          miss_penalty=1.0)
        )
        assert smap.call_multiplier(0, 0) == pytest.approx(1.0)
        assert smap.call_multiplier(0, 1) > smap.call_multiplier(0, 0)
        # Colder shards pay a smaller penalty than the hottest.
        assert smap.call_multiplier(7, 1) < smap.call_multiplier(0, 1)

    def test_gather_shards_deterministic_and_distinct(self):
        smap = ShardMap(ClusterConfig(num_shards=8, gather_width=3, seed=3))
        a = smap.gather_shards(200)
        b = ShardMap(
            ClusterConfig(num_shards=8, gather_width=3, seed=3)
        ).gather_shards(200)
        assert np.array_equal(a, b)
        assert a.shape == (200, 3)
        for row in a:
            assert len(set(row.tolist())) == 3


class TestClusterResilience:
    def test_no_fault_all_complete(self):
        res = _cluster(_arrivals())
        assert np.all(res.outcomes == CL_COMPLETED)
        assert res.goodput == pytest.approx(1.0)
        assert res.failovers == 0
        assert np.isfinite(res.quality_percentile(95.0))

    def test_node_kill_unreplicated_degrades_replicated_fails_over(self):
        arrivals = _arrivals(800)
        horizon = float(arrivals[-1])
        plan = ClusterFaultPlan(
            [NodeCrash(1, 0.25 * horizon, 0.6 * horizon)], seed=11
        )
        weak = _cluster(arrivals, replication=1, faults=plan)
        strong = _cluster(arrivals, replication=2, faults=plan)
        # Unreplicated: requests touching the dead node's shards lose
        # recall -> degraded outcomes and an unbounded quality tail.
        assert np.any(weak.outcomes == CL_DEGRADED)
        assert weak.failovers == 0
        assert weak.quality_percentile(95.0) == np.inf
        # Replicated: the router fails over and keeps every request whole.
        assert np.all(strong.outcomes == CL_COMPLETED)
        assert strong.failovers > 0
        assert np.isfinite(strong.quality_percentile(95.0))
        assert strong.goodput > weak.goodput

    def test_partition_ejects_probes_and_readmits(self):
        arrivals = _arrivals(800)
        horizon = float(arrivals[-1])
        plan = ClusterFaultPlan(
            [NodePartition(2, 0.2 * horizon, 0.5 * horizon)], seed=11
        )
        res = _cluster(arrivals, faults=plan)
        assert res.partition_failures > 0
        assert res.ejections >= 1
        assert res.probes >= 1
        # Calls land on the partitioned node again after it rejoins.
        assert res.node_stats[2].calls > 0
        assert np.all(res.outcomes == CL_COMPLETED)

    def test_hedging_cuts_slow_node_tail(self):
        arrivals = _arrivals(900)
        horizon = float(arrivals[-1])
        plan = ClusterFaultPlan(
            [NodeSlow(0, 0.1 * horizon, 0.9 * horizon, factor=8.0)], seed=11
        )
        plain = _cluster(arrivals, faults=plan)
        hedged = _cluster(
            arrivals, faults=plan,
            hedge=HedgePolicy(quantile=95.0, min_ms=2.0, window=64),
        )
        assert hedged.hedges_issued > 0
        assert hedged.hedges_won > 0
        assert hedged.p99_ms < plain.p99_ms

    def test_hedge_accounting_invariant(self):
        arrivals = _arrivals(900)
        horizon = float(arrivals[-1])
        for faults in (
            None,
            ClusterFaultPlan(
                [
                    NodeCrash(1, 0.25 * horizon, 0.6 * horizon),
                    NodeSlow(0, 0.1 * horizon, 0.9 * horizon, factor=6.0),
                ],
                seed=11,
            ),
        ):
            res = _cluster(
                arrivals, faults=faults,
                hedge=HedgePolicy(quantile=90.0, min_ms=1.5, window=64),
            )
            assert (
                res.hedges_won + res.hedges_wasted + res.hedges_failed
                == res.hedges_issued
            )

    def test_partial_results_off_turns_degraded_into_failed(self):
        arrivals = _arrivals(800)
        horizon = float(arrivals[-1])
        plan = ClusterFaultPlan(
            [NodeCrash(1, 0.25 * horizon, 0.6 * horizon)], seed=11
        )
        soft = _cluster(arrivals, replication=1, faults=plan)
        hard = _cluster(
            arrivals, replication=1, faults=plan, partial_results=False
        )
        assert np.any(soft.outcomes == CL_DEGRADED)
        assert not np.any(hard.outcomes == CL_DEGRADED)
        assert np.any(hard.outcomes == CL_FAILED)

    def test_runs_are_deterministic(self):
        arrivals = _arrivals(700)
        horizon = float(arrivals[-1])
        plan = ClusterFaultPlan(
            [
                NodeCrash(1, 0.25 * horizon, 0.6 * horizon),
                NodePartition(2, 0.1 * horizon, 0.3 * horizon),
            ],
            seed=11,
        )
        kwargs = dict(
            faults=plan,
            hedge=HedgePolicy(quantile=95.0, min_ms=2.0, window=64),
        )
        a = _cluster(arrivals, **kwargs)
        b = _cluster(arrivals, **kwargs)
        assert np.array_equal(a.outcomes, b.outcomes)
        assert np.array_equal(a.latencies_ms, b.latencies_ms)
        assert np.array_equal(a.request_latency_ms, b.request_latency_ms)
        assert a.failovers == b.failovers
        assert a.hedges_issued == b.hedges_issued

    def test_crash_loses_in_flight_calls(self):
        arrivals = _arrivals(800)
        horizon = float(arrivals[-1])
        plan = ClusterFaultPlan(
            [NodeCrash(1, 0.25 * horizon, 0.6 * horizon)], seed=11
        )
        res = _cluster(arrivals, replication=2, faults=plan)
        assert res.node_stats[1].lost_calls > 0

    def test_utilization_and_stats_sane(self):
        res = _cluster(_arrivals())
        assert len(res.node_stats) == 4
        assert sum(s.calls for s in res.node_stats) >= res.offered_requests
        for stat in res.node_stats:
            assert 0.0 <= stat.utilization <= 1.0
        assert 0.0 <= res.mean_utilization <= 1.0


class TestClusterConfigValidation:
    def test_bad_topology_rejected(self):
        with pytest.raises(ConfigError):
            ClusterConfig(num_nodes=0)
        with pytest.raises(ConfigError):
            ClusterConfig(num_nodes=2, replication=3)
        with pytest.raises(ConfigError):
            ClusterConfig(num_shards=4, gather_width=5)
        with pytest.raises(ConfigError):
            ClusterConfig(placement="random")
        with pytest.raises(ConfigError):
            ClusterConfig(routing="magic")
        with pytest.raises(ConfigError):
            ClusterConfig(num_nodes=3, cache_scores=(1.0, 0.5))
        with pytest.raises(ConfigError):
            ClusterConfig(call_timeout_ms=0.0)
        # Every kind of node fault window must name a node the cluster has.
        for fault in (
            NodeCrash(9, 0.0, 1e9),
            NodePartition(4, 0.0, 1e9),
            NodeSlow(7, 0.0, 1e9, factor=4.0),
            NodeTenant(4, 0.0, 1e9, factor=2.0, tenant="t"),
        ):
            with pytest.raises(ConfigError, match="node"):
                ClusterConfig(num_nodes=4, faults=ClusterFaultPlan([fault]))
        ClusterConfig(num_nodes=4, faults=ClusterFaultPlan([NodeCrash(3, 0.0, 1.0)]))

    def test_bad_arrivals_rejected(self):
        sim = ClusterSim(ClusterConfig())
        with pytest.raises(ConfigError):
            sim.run(np.empty(0))
        with pytest.raises(ConfigError):
            sim.run(np.array([3.0, 1.0]))
        for bad in ([0.0, np.nan, 1.0], [0.0, 1.0, np.inf]):
            with pytest.raises(ConfigError):
                sim.run(np.array(bad))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "name",
        [
            "mean_service_ms", "service_cv", "hop_ms", "call_timeout_ms",
            "deadline_ms", "hotness_alpha", "miss_penalty",
        ],
    )
    def test_non_finite_values_rejected(self, name, value):
        # A NaN passes every ordered check and leaves every request of a
        # multi-node run unresolved.
        with pytest.raises(ConfigError, match="must be finite"):
            ClusterConfig(num_nodes=4, **{name: value})

    def test_bad_service_distribution_rejected(self):
        with pytest.raises(ConfigError):
            ClusterConfig(mean_service_ms=0.0)
        with pytest.raises(ConfigError):
            ClusterConfig(service_cv=-0.1)
