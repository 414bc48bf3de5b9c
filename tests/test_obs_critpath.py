"""Critical-path extraction: conservation, attribution, profiles."""

import json

import numpy as np
import pytest

from repro.config import SimConfig
from repro.obs import hooks as obs_hooks
from repro.obs.critpath import (
    SEGMENT_KINDS,
    CriticalPath,
    Segment,
    aggregate_profiles,
    bottleneck,
    check_conservation,
    extract_critical_path,
    extract_paths,
)
from repro.obs.hooks import Observation
from repro.obs.requests import RequestLog
from repro.obs.schema import validate_def
from repro.serving.cluster import ClusterConfig, ClusterSim
from repro.serving.degradation import DegradationController, scheme_ladder
from repro.serving.faults import (
    ArrivalBurst,
    BandwidthDegradation,
    ClusterFaultPlan,
    FaultPlan,
    NodeCrash,
    NodeSlow,
    Stragglers,
)
from repro.serving.router import HedgePolicy
from repro.serving.server import ServingPolicy, simulate_server
from repro.serving.workload import poisson_arrivals

SCHEMA = json.loads(open("tools/trace_schema.json").read())


def _arrivals(n=600, interarrival=0.4, seed=7):
    return poisson_arrivals(interarrival, n, SimConfig(seed=seed).rng("t:arr"))


def _cluster_config(**kwargs):
    horizon = 600 * 0.4
    defaults = dict(
        num_nodes=4, cores_per_node=2, mean_service_ms=1.0, num_shards=8,
        replication=2, gather_width=2, hop_ms=0.05, call_timeout_ms=12.0,
        deadline_ms=50.0, routing="least_loaded",
        hedge=HedgePolicy(quantile=95.0, min_ms=2.0, window=64),
        faults=ClusterFaultPlan(
            [
                NodeCrash(1, 0.25 * horizon, 0.6 * horizon),
                NodeSlow(0, 0.5 * horizon, 0.8 * horizon, factor=4.0),
            ],
            seed=11,
        ),
        seed=11, label="t:critpath",
    )
    defaults.update(kwargs)
    return ClusterConfig(**defaults)


def _cluster_records(**kwargs):
    obs = Observation(requests=RequestLog())
    with obs_hooks.session(obs):
        ClusterSim(_cluster_config(**kwargs)).run(_arrivals())
    return obs.requests.runs[-1].records


def _single_box_records():
    """A stressed single-box run: sheds, times out, retries, completes."""
    rng = np.random.default_rng(5)
    arrivals = poisson_arrivals(1.5, 150, rng)
    horizon = float(arrivals[-1])
    plan = FaultPlan(
        [
            BandwidthDegradation(0.2 * horizon, 0.7 * horizon, 3.0),
            ArrivalBurst(0.4 * horizon, 50, 0.2),
            Stragglers(0.1, 4.0, tail_alpha=1.5),
        ],
        seed=3,
    )
    policy = ServingPolicy(
        deadline_ms=8.0, timeout_ms=6.0, max_retries=1,
        retry_backoff_ms=2.0, max_queue_depth=6,
    )
    controller = DegradationController(
        scheme_ladder({"baseline": 1.0, "sw_pf": 0.8}), sla_ms=8.0
    )
    with obs_hooks.session(Observation(requests=RequestLog())) as obs:
        simulate_server(
            arrivals, 4.0, 2, np.random.default_rng(1),
            policy=policy, fault_plan=plan, controller=controller,
        )
    return obs.requests.records()


class TestConservation:
    def test_exact_on_faulted_hedged_cluster_run(self):
        records = _cluster_records()
        paths = extract_paths(records)
        assert len(paths) == len(records)
        for path in paths:
            assert check_conservation(path) == 0.0  # exact, not approx

    def test_exact_on_stressed_single_box_run(self):
        records = _single_box_records()
        paths = extract_paths(records)
        assert len(paths) == len(records)
        for path in paths:
            assert check_conservation(path) == 0.0

    def test_only_known_segment_kinds(self):
        for path in extract_paths(_cluster_records()):
            for seg in path.segments:
                assert seg.kind in SEGMENT_KINDS
                assert seg.dur_ms >= 0.0 or seg is path.segments[-1]

    def test_total_matches_request_log_latency(self):
        records = _cluster_records()
        for rec, path in zip(records, extract_paths(records)):
            if rec["latency_ms"] is not None:
                assert path.total_ms == pytest.approx(rec["latency_ms"])

    def test_fault_scenario_surfaces_recovery_and_hedge_wait(self):
        kinds = set()
        for path in extract_paths(_cluster_records()):
            kinds.update(seg.kind for seg in path.segments)
        # The node kill forces failovers (recovery) and the slow node
        # triggers hedges; queue and service are always present.
        assert {"queue", "service", "recovery", "hedge_wait"} <= kinds

    def test_extraction_deterministic_across_reruns(self):
        def fingerprint():
            return [
                (p.id, p.outcome, [(s.kind, s.dur_ms, s.node, s.shard)
                                   for s in p.segments])
                for p in extract_paths(_cluster_records())
            ]

        assert fingerprint() == fingerprint()


class TestProfiles:
    def test_profiles_cover_overall_tail_nodes_shards(self):
        profiles = aggregate_profiles(
            extract_paths(_cluster_records()), scenario="t"
        )
        scopes = {p["scope"] for p in profiles}
        assert "overall" in scopes
        assert any(s.startswith("tail_p") for s in scopes)
        assert any(s.startswith("node:") for s in scopes)
        assert any(s.startswith("shard:") for s in scopes)

    def test_profiles_are_schema_valid(self):
        paths = extract_paths(_cluster_records())
        for rec in aggregate_profiles(paths, scenario="t"):
            assert validate_def(rec, SCHEMA, "critpath_record") == []

    def test_schema_bottleneck_is_a_segment_kind(self):
        """The schema's one cause taxonomy is SEGMENT_KINDS (null: an
        empty profile)."""
        bottleneck = SCHEMA["$defs"]["critpath_record"]["properties"]["bottleneck"]
        assert bottleneck["enum"] == [*SEGMENT_KINDS, None]
        paths = extract_paths(_cluster_records())
        rec = aggregate_profiles(paths, scenario="t")[0]
        assert validate_def({**rec, "bottleneck": "queueing"}, SCHEMA,
                            "critpath_record") != []

    def test_tail_profile_is_subset_of_overall(self):
        profiles = {
            p["scope"]: p
            for p in aggregate_profiles(
                extract_paths(_cluster_records()), tail_quantile=99.0
            )
        }
        tail = profiles["tail_p99"]
        overall = profiles["overall"]
        assert 0 < tail["requests"] <= overall["requests"]
        assert tail["total_ms"] <= overall["total_ms"]

    def test_segment_sums_reconcile_per_profile(self):
        for rec in aggregate_profiles(extract_paths(_cluster_records())):
            assert sum(rec["segments"].values()) == pytest.approx(
                rec["total_ms"]
            )

    def test_bottleneck_prefers_canonical_order_on_ties(self):
        assert bottleneck({"service": 2.0, "queue": 2.0}) == "queue"
        assert bottleneck({"other": 1.0}) == "other"
        assert bottleneck({}) is None
        assert bottleneck({"queue": 0.0}) is None

    def test_aggregate_profiles_empty_input(self):
        profiles = aggregate_profiles(extract_paths([]), scenario="empty")
        overall = [p for p in profiles if p["scope"] == "overall"][0]
        assert overall["requests"] == 0
        assert overall["bottleneck"] is None


class TestPathShape:
    def test_completed_cluster_request_leads_with_hop_or_queue(self):
        for path in extract_paths(_cluster_records()):
            if path.outcome == "completed" and path.segments:
                assert path.segments[0].kind in ("network", "queue")
                break
        else:
            pytest.fail("no completed request in the pinned run")

    def test_queued_single_box_request_starts_with_queue(self):
        records = _single_box_records()
        for rec, path in zip(records, extract_paths(records)):
            if rec["outcome"] == "completed" and rec["wait_ms"] > 0:
                assert path.segments[0].kind == "queue"
                assert path.segments[0].dur_ms == pytest.approx(rec["wait_ms"])
                break
        else:
            pytest.fail("no queued completed request in the pinned run")

    def test_by_kind_sums_match_segments(self):
        path = CriticalPath(
            req=0, id="0:0", outcome="completed",
            arrival_ms=0.0, end_ms=5.0,
            segments=[
                Segment("queue", 1.0), Segment("service", 3.0),
                Segment("queue", 1.0),
            ],
        )
        assert path.by_kind() == {"queue": 2.0, "service": 4.0 - 1.0}

    def test_single_record_dispatch_on_shards_field(self):
        cluster = _cluster_records()[0]
        assert cluster.get("shards") is not None
        single = _single_box_records()[0]
        assert single.get("shards") is None
        # Both layers extract without error through the same entry point.
        assert check_conservation(extract_critical_path(cluster)) == 0.0
        assert check_conservation(extract_critical_path(single)) == 0.0
