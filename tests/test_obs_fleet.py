"""Fleet tracing tests: span trees, node attribution, zero-cost contract."""

import numpy as np
import pytest

from cluster_oracle import FleetTrace, merge_spans
from repro.config import SimConfig
from repro.obs import hooks as obs_hooks
from repro.obs.fleet import FleetSpan, check_span_tree
from repro.obs.hooks import Observation
from repro.obs.requests import RequestLog
from repro.serving.cluster import ClusterConfig, ClusterSim
from repro.serving.faults import ClusterFaultPlan, NodeCrash, NodeSlow
from repro.serving.router import HedgePolicy
from repro.serving.workload import poisson_arrivals


def _arrivals(n=600, interarrival=0.4, seed=7):
    return poisson_arrivals(interarrival, n, SimConfig(seed=seed).rng("t:arr"))


def _config(**kwargs):
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
        seed=11, label="t:fleet",
    )
    defaults.update(kwargs)
    return ClusterConfig(**defaults)


def _observed_run(**kwargs):
    obs = Observation(requests=RequestLog())
    with obs_hooks.session(obs):
        result = ClusterSim(_config(**kwargs)).run(_arrivals())
    return result, obs


class TestSpanTree:
    def test_faulted_hedged_run_has_clean_span_forest(self):
        _, obs = _observed_run()
        spans = [
            e for e in obs.tracer.events
            if e.category.startswith("fleet.")
        ]
        assert spans, "traced cluster run emitted no fleet spans"
        forest = [
            FleetSpan(
                span_id=str(e.args["span_id"]),
                parent_id=e.args["parent_id"],
                name=e.name,
                kind=str(e.args["kind"]),
                node=e.args["node"],
                start_ms=e.ts,
                end_ms=e.ts + e.dur,
                attrs=dict(e.args),
            )
            for e in spans
        ]
        assert check_span_tree(forest) == []

    def test_root_ids_join_request_log_exemplars(self):
        _, obs = _observed_run()
        run = obs.requests.runs[-1]
        record_ids = {rec["id"] for rec in run.records}
        roots = {
            str(e.args["span_id"])
            for e in obs.tracer.events
            if e.category == "fleet.request"
        }
        assert roots == record_ids

    def test_attempts_land_on_node_tracks(self):
        _, obs = _observed_run()
        meta = {
            e.tid: e.name[len("track:"):]
            for e in obs.tracer.events
            if e.category == "sim.meta"
        }
        for e in obs.tracer.events:
            if e.category != "fleet.attempt":
                continue
            label = meta[e.tid]
            assert f"node{e.args['node']}" in label

    def test_hedge_and_failover_reasons_recorded(self):
        _, obs = _observed_run()
        reasons = {
            e.args["reason"]
            for e in obs.tracer.events
            if e.category == "fleet.route"
        }
        assert "primary" in reasons
        assert "failover" in reasons  # the node kill forces failovers
        assert "hedge" in reasons

    def test_exemplars_join_latency_histogram(self):
        result, obs = _observed_run()
        run = obs.requests.runs[-1]
        hist = obs.metrics.histogram("cluster.latency_ms")
        exemplar_ids = {
            ex for ids in hist.exemplars.values() for ex in ids
        }
        assert exemplar_ids <= {rec["id"] for rec in run.records}
        assert len(exemplar_ids) > 0

    def test_late_wasted_hedge_nests_in_widened_parents(self):
        """A hedge that delivers after its request closed still sits
        inside its gather and its root; the forest is in (start, span id)
        order, with one root per request, one gather per admitted slot and
        one attempt per call."""
        result, obs = _observed_run()
        records = list(obs.requests.runs[-1].records)
        forest = [e for e in obs.tracer.events if e.category.startswith("fleet.")]
        order = [(e.ts, e.args["span_id"]) for e in forest]
        assert order == sorted(order)
        spans = {e.args["span_id"]: e for e in forest}
        kinds = [e.category for e in spans.values()]
        admitted = sum(rec["outcome"] != "shed" for rec in records)
        calls = sum(
            e["kind"] == "shard_call" for rec in records for e in rec["events"]
        )
        assert kinds.count("fleet.request") == len(records)
        assert len(records) == result.offered_requests
        assert kinds.count("fleet.gather") == admitted * _config().gather_width
        assert kinds.count("fleet.attempt") == calls
        late = []
        for e in spans.values():
            if e.category != "fleet.attempt" or not e.args["hedge"]:
                continue
            gather = spans[e.args["parent_id"]]
            root = spans[gather.args["parent_id"]]
            wasted = e.args.get("winner") is False
            if wasted and e.ts + e.dur > root.args["outcome_ms"]:
                late.append((e, gather, root))
        assert late, "no wasted hedge delivered after its request closed"
        for attempt, gather, root in late:
            for child, parent in ((attempt, gather), (gather, root)):
                assert parent.ts <= child.ts
                assert child.ts + child.dur <= parent.ts + parent.dur
            assert root.ts + root.dur > root.args["outcome_ms"]


class TestZeroCost:
    def test_hooks_off_byte_identical_to_hooks_on(self):
        plain = ClusterSim(_config()).run(_arrivals())
        observed, _ = _observed_run()
        assert np.array_equal(plain.outcomes, observed.outcomes)
        assert plain.latencies_ms.tobytes() == observed.latencies_ms.tobytes()
        assert (
            plain.request_latency_ms.tobytes()
            == observed.request_latency_ms.tobytes()
        )
        assert plain.failovers == observed.failovers
        assert plain.hedges_issued == observed.hedges_issued
        assert plain.hedges_wasted == observed.hedges_wasted

    def test_trace_export_deterministic(self):
        exports = []
        for _ in range(2):
            _, obs = _observed_run()
            exports.append(
                [
                    (e.name, e.category, e.ts, e.dur, e.tid, sorted(e.args.items()))
                    for e in obs.tracer.events
                    if e.category.startswith("fleet.")
                ]
            )
        assert exports[0] == exports[1]


class TestMergeSpans:
    """The oracle's frozen merge (``cluster_oracle.merge_spans``), the
    reference the package's span forest is compared to byte for byte."""

    def _span(self, sid, parent, kind, node, start, end):
        return FleetSpan(sid, parent, sid, kind, node, start, end)

    def test_parent_widened_to_envelope_children(self):
        root = self._span("0:0", None, "request", None, 10.0, 11.0)
        slot = self._span("0:0/g0", "0:0", "gather", None, 10.0, 10.5)
        late = self._span("0:0/g0/a0", "0:0/g0", "attempt", 2, 10.0, 25.0)
        merged = merge_spans([root, slot], {2: [late]})
        by_id = {s.span_id: s for s in merged}
        assert by_id["0:0/g0"].end_ms == 25.0
        assert by_id["0:0"].end_ms == 25.0
        assert check_span_tree(merged) == []

    def test_merge_order_is_start_then_id(self):
        a = self._span("0:1", None, "request", None, 5.0, 6.0)
        b = self._span("0:0", None, "request", None, 5.0, 6.0)
        c = self._span("0:2", None, "request", None, 1.0, 2.0)
        merged = merge_spans([a, b, c], {})
        assert [s.span_id for s in merged] == ["0:2", "0:0", "0:1"]


class TestMalformedTrees:
    """check_span_tree on the broken shapes a buggy recorder could emit."""

    def _span(self, sid, parent, kind, node, start, end, **attrs):
        return FleetSpan(sid, parent, sid, kind, node, start, end, dict(attrs))

    def test_check_span_tree_flags_violations(self):
        orphan = self._span("0:0/g9", "0:missing", "gather", None, 0.0, 1.0)
        negative = self._span("0:1", None, "request", None, 5.0, 4.0)
        nodeless = FleetSpan("0:2/a0", "0:2", "a", "attempt", None, 0.0, 1.0)
        root2 = self._span("0:2", None, "request", None, 0.0, 1.0)
        problems = check_span_tree([orphan, negative, nodeless, root2])
        text = "\n".join(problems)
        assert "orphan" in text
        assert "negative duration" in text
        assert "attempt without a node" in text

    def test_orphaned_hedge_attempt_is_flagged(self):
        # A hedge attempt whose gather span was never recorded: the
        # parent id resolves to nothing, which must surface as an
        # orphan, not silently pass.
        root = self._span("0:0", None, "request", None, 0.0, 5.0)
        hedge = self._span(
            "0:0/g1/a1", "0:0/g1", "attempt", 2, 1.0, 3.0, hedge=True
        )
        problems = check_span_tree([root, hedge])
        assert len(problems) == 1
        assert "orphan" in problems[0]
        assert "0:0/g1/a1" in problems[0]

    def test_zero_duration_spans_are_legal(self):
        # Route decisions are zero-duration by design; a zero-duration
        # attempt (instantaneous delivery) is degenerate but not a
        # structural violation.
        root = self._span("0:0", None, "request", None, 0.0, 2.0)
        slot = self._span("0:0/g0", "0:0", "gather", None, 1.0, 1.0)
        route = self._span("0:0/g0/r0", "0:0/g0", "route", 1, 1.0, 1.0)
        attempt = self._span("0:0/g0/a0", "0:0/g0", "attempt", 1, 1.0, 1.0)
        assert check_span_tree([root, slot, route, attempt]) == []

    def test_out_of_order_siblings_fixed_by_merge(self):
        # Siblings recorded out of chronological order (the hedge landed
        # in the log before the primary): merge_spans must restore the
        # deterministic (start, id) order and the result must verify.
        root = self._span("0:0", None, "request", None, 0.0, 6.0)
        slot = self._span("0:0/g0", "0:0", "gather", None, 0.0, 6.0)
        hedge = self._span("0:0/g0/a1", "0:0/g0", "attempt", 2, 3.0, 5.0)
        primary = self._span("0:0/g0/a0", "0:0/g0", "attempt", 1, 1.0, 6.0)
        merged = merge_spans([root, slot], {2: [hedge], 1: [primary]})
        attempts = [s.span_id for s in merged if s.kind == "attempt"]
        assert attempts == ["0:0/g0/a0", "0:0/g0/a1"]
        assert check_span_tree(merged) == []

    def test_child_outside_unwidened_parent_is_flagged(self):
        # Without envelope widening a late child sticks out of its
        # parent's interval — exactly what check_span_tree exists to
        # catch when someone skips finalize().
        root = self._span("0:0", None, "request", None, 0.0, 2.0)
        slot = self._span("0:0/g0", "0:0", "gather", None, 0.0, 2.0)
        late = self._span("0:0/g0/a0", "0:0/g0", "attempt", 1, 1.0, 9.0)
        problems = check_span_tree([root, slot, late])
        assert any("outside parent interval" in p for p in problems)

    def test_crash_mid_gather_still_produces_clean_forest(self):
        # A request whose gather never closed (the recorder "crashed"
        # after the attempt failed): end_slot/end_request were never
        # called, so the raw parents are zero-width — finalize's
        # envelope widening must still yield a verifiable forest.  Run
        # on the incremental recorder the cluster oracle keeps.
        trace = FleetTrace("t", run_index=0)
        trace.begin_request(0, 0.0)
        sid = trace.begin_slot(0, 0, 4, 0.0)
        trace.route(sid, 0.0, 2, "round_robin", 1, "primary")
        aid = trace.begin_attempt(sid, 2, 0.0, False)
        trace.end_attempt(aid, 3.0, "crash")
        # no end_slot, no end_request
        merged = trace.finalize()
        assert check_span_tree(merged) == []
        by_id = {s.span_id: s for s in merged}
        assert by_id[sid].end_ms == 3.0
        assert by_id["0:0"].end_ms == 3.0


class TestFleetTraceApi:
    """The oracle's incremental recorder (``cluster_oracle.FleetTrace``),
    which the hooks-on oracle comparison holds the package's recorder to."""

    def test_emit_requires_finalize_only_once(self):
        trace = FleetTrace("t", run_index=0)
        trace.begin_request(0, 0.0)
        sid = trace.begin_slot(0, 0, 3, 0.0)
        trace.route(sid, 0.0, 1, "round_robin", 2, "primary")
        aid = trace.begin_attempt(sid, 1, 0.0, False)
        trace.end_attempt(aid, 2.0, "ok", winner=True)
        trace.end_slot(sid, 2.0, "ok")
        trace.end_request(0, 2.1, "completed")
        first = trace.finalize()
        assert trace.finalize() is first
        assert check_span_tree(first) == []
        # Same start time: span-id lexicographic order breaks the tie
        # ("…/a0" sorts before "…/r0").
        assert [s.kind for s in first] == ["request", "gather", "attempt", "route"]

    def test_end_of_unknown_span_is_ignored(self):
        trace = FleetTrace("t")
        trace.end_request(99, 1.0, "completed")
        trace.end_slot("nope", 1.0, "ok")
        trace.end_attempt("nope", 1.0, "ok")
        assert trace.finalize() == []
