"""Distributed tracing for the cluster: one span tree per request.

The single-box request log answers "what happened to request 17"; at
fleet scale the interesting question is *where* — which replica the
router picked, which node the failover landed on, whether the hedge or
the primary won the race.  An observed cluster run answers it with a
span tree per request, mirroring what a real distributed tracer (Dapper,
OpenTelemetry) would collect from propagated trace context:

* **root** — the request, spanning arrival to final outcome.  Its span
  id IS the request-log exemplar id (``"run:req"``), so the tree joins
  the JSONL request line and the histogram exemplars exactly as the
  single-box path does.
* **gather** — one child per shard lookup (``root/g{k}``), covering the
  primary attempt, any failovers, and any hedges of that shard call.
* **route** — a zero-duration decision span (``.../r{j}``) each time the
  router picks (or fails to pick) a replica, annotated with the policy,
  the chosen node, and how many replicas were eligible.
* **attempt** — one child per call in flight (``.../a{j}``), attributed
  to the node that served it, ending when the response delivered or the
  attempt died (crash, partition, timeout).

The cluster loop records plain rows while it runs and builds the
:class:`FleetSpan` lists only after it drains
(``repro.serving.cluster.ClusterSim._export``): router-side spans
in one list, attempt spans per node — each node's own run log, as it
were.  :func:`merge_spans` merges them deterministically (sorted by
start time, span id as the tiebreak) while widening every parent to
envelope its children, so a wasted hedge that delivers after the
request finished still sits inside its parent's interval, and
:func:`emit_spans` publishes the forest onto the tracer.  The invariant
— every child inside its parent, no orphan parents — is what
:func:`check_span_tree` verifies and the tests lock.

Everything is simulated-time only.  With observation off the cluster
loop records nothing, keeping the zero-cost contract: hooks-off cluster
results are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "FLEET_SPAN_KINDS",
    "FleetSpan",
    "check_span_tree",
    "emit_spans",
    "merge_spans",
]

#: Span kinds a fleet trace contains (also the trace-category suffixes).
FLEET_SPAN_KINDS = ("request", "gather", "route", "attempt")


@dataclass
class FleetSpan:
    """One node of one request's span tree (simulated milliseconds)."""

    span_id: str
    parent_id: Optional[str]
    name: str
    kind: str  # one of FLEET_SPAN_KINDS
    node: Optional[int]
    start_ms: float
    end_ms: float
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms


def merge_spans(
    router_spans: List[FleetSpan],
    node_spans: Dict[int, List[FleetSpan]],
) -> List[FleetSpan]:
    """Envelope-widen parents, then merge all logs into one stable order.

    The order — ``(start_ms, span_id)`` — depends only on simulated time
    and the deterministic id scheme, so the merged trace is byte-stable
    across hosts and ``--jobs`` regardless of how many per-node logs fed
    it.
    """
    all_spans = list(router_spans)
    for node in sorted(node_spans):
        all_spans.extend(node_spans[node])
    by_id = {span.span_id: span for span in all_spans}
    # Children are created after their parents and ids nest by "/", so
    # widening deepest first carries a late child up to its root in one
    # pass.
    for span in sorted(all_spans, key=_depth, reverse=True):
        parent = by_id.get(span.parent_id)  # None for a root or an orphan
        if parent is None:
            continue
        if span.start_ms < parent.start_ms:
            parent.start_ms = span.start_ms
        if span.end_ms > parent.end_ms:
            parent.end_ms = span.end_ms
    # By (start_ms, span_id): two stable sorts, cheaper than tuple keys.
    all_spans.sort(key=attrgetter("span_id"))
    all_spans.sort(key=attrgetter("start_ms"))
    return all_spans


def _depth(span: FleetSpan) -> int:
    return span.span_id.count("/")


def emit_spans(tracer, label: str, spans: List[FleetSpan]) -> None:
    """Publish a merged span forest onto the tracer's simulated tracks.

    Router-side spans (request/gather/route) go on one ``fleet:...
    router`` track; each node's attempts go on its own ``fleet:...
    node{n}`` track — the Chrome-trace rendering of "per-node run logs
    merged with node attribution".  The spans go over as one columnar
    batch, in merged order: each span's event is built only when the
    trace is read.
    """
    if not spans:
        return
    router_tid = tracer.new_sim_track(f"fleet:{label} router (ms)")
    node_tids: Dict[int, int] = {}
    for node in sorted(
        {span.node for span in spans if span.kind == "attempt"} - {None}
    ):
        node_tids[node] = tracer.new_sim_track(f"fleet:{label} node{node} (ms)")
    tids = [
        node_tids[span.node]
        if span.kind == "attempt" and span.node is not None
        else router_tid
        for span in spans
    ]
    starts = np.array([span.start_ms for span in spans], dtype=np.float64)
    ends = np.array([span.end_ms for span in spans], dtype=np.float64)

    def describe(i: int) -> Tuple[str, Dict[str, object]]:
        span = spans[i]
        args: Dict[str, object] = {
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "kind": span.kind,
            "node": span.node,
        }
        args.update(span.attrs)
        return span.name, args

    tracer.add_sim_batch(
        [f"fleet.{span.kind}" for span in spans], starts, ends - starts,
        describe, tid=tids,
    )


def check_span_tree(spans: List[FleetSpan]) -> List[str]:
    """Structural violations of a merged span forest (empty = healthy).

    Checks the tracing invariants the tests lock: every ``parent_id``
    resolves, every child lies within its parent's interval, attempts
    carry a node, and no span ends before it starts.
    """
    by_id = {span.span_id: span for span in spans}
    problems: List[str] = []
    for span in spans:
        if span.end_ms < span.start_ms:
            problems.append(f"{span.span_id}: negative duration")
        if span.kind == "attempt" and span.node is None:
            problems.append(f"{span.span_id}: attempt without a node")
        if span.parent_id is None:
            if span.kind != "request":
                problems.append(f"{span.span_id}: non-root without parent")
            continue
        parent = by_id.get(span.parent_id)
        if parent is None:
            problems.append(f"{span.span_id}: orphan (parent {span.parent_id})")
            continue
        if span.start_ms < parent.start_ms or span.end_ms > parent.end_ms:
            problems.append(
                f"{span.span_id}: outside parent interval "
                f"[{parent.start_ms}, {parent.end_ms}]"
            )
    return problems
