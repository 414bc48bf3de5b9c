"""Critical-path extraction: where each request's latency actually went.

The request log says a request took 38 ms and missed its deadline; this
module says *which segment of its timeline was on the blocking chain* —
the on-node queue wait, the service time itself, the contention penalty a
noisy neighbor added, the network hops, the hedge delay the request sat
out, the failover recovery after a crash, or the retry backoff.  That is
the attribution the paper's Table 1 / fig17 argument needs at request
granularity, and the bottleneck signal the autoscaling and autotuning
layers consume.

Every extractor writes the same columnar :class:`PathTable`, in one
segment taxonomy (:data:`SEGMENT_KINDS`), and builds a
:class:`CriticalPath` only when one is read:

* **single box** (:func:`extract_lifecycles`) — walks the lifecycle event
  streams of :mod:`repro.serving.server` / ``fastserve`` chronologically,
  for every request at once, as numpy column operations over a
  :class:`Lifecycles` table: ``arrive→dispatch`` is queueing,
  ``dispatch→complete`` is service with the fault/straggler/degradation
  multiplier carved out as ``penalty``, ``timeout_retry→retry_arrive`` is
  backoff.  A :class:`~repro.obs.requests.RunLog` hands over its columns
  directly; record dicts (e.g. reloaded JSONL) are parsed into the same
  table first.  A fast-path run skips the walk: :func:`extract_fast`
  writes its queue and service segments in closed form, bit-identical
  to the walk.
* **cluster** (:func:`extract_calls`) — walks each request backward from
  its slowest gather slot over a :class:`CallTable`, the one parse of
  cluster requests' events (a row per shard call: slot, node, times,
  outcome, and why it was sent).  A live run hands the parser its own
  event columns; record dicts (e.g. reloaded JSONL) go through the same
  parser.  The winning attempt splits into
  ``network``, ``queue``, ``service`` and ``penalty``; a failover charges
  the attempt it replaced to ``recovery``, a hedge its armed delay to
  ``hedge_wait``.  The what-if engine and the fleet monitor read the
  same table.

**Conservation invariant**: for every request the chronological segment
durations sum *exactly* (in float sim-ms) to ``end_ms - arrival_ms``.
The last chronological segment's duration is defined as the left-to-right
remainder ``total - sum(previous)``, so :func:`check_conservation`'s
sequential subtraction reaches exactly ``0.0`` — any residual float dust
is folded into the final segment (which may, in pathological cases, go
marginally negative; the profile aggregates are unaffected).

Aggregation (:func:`aggregate_profiles`) answers "where does p99 go":
fleet-wide per-kind breakdowns overall, over the p99 tail, and per
node/shard, exported as schema-validated ``critpath_profile`` records
(``$defs.critpath_record`` in ``tools/trace_schema.json``) and rendered
by ``tools/trace_report.py --critpath`` and the dashboard panel.

Everything here is a pure function of the logged records — deterministic
across hosts and ``--jobs``, no simulation, no randomness, no wall time.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import count
from math import isnan
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

import numpy as np

__all__ = [
    "CALL_REASONS",
    "CRITPATH_SCHEMA_VERSION",
    "LIFECYCLE_KINDS",
    "SEGMENT_KINDS",
    "CallTable",
    "CriticalPath",
    "FastLifecycles",
    "Lifecycles",
    "PathTable",
    "Segment",
    "aggregate_profiles",
    "bottleneck",
    "check_conservation",
    "extract_calls",
    "extract_critical_path",
    "extract_fast",
    "extract_lifecycles",
    "extract_paths",
]

#: Version stamp of the exported ``critpath_profile`` record shape.
CRITPATH_SCHEMA_VERSION = 1

#: The segment taxonomy, in canonical display order.
SEGMENT_KINDS = (
    "queue",       # waiting for a core (single box) or on-node (cluster)
    "service",     # base service time, multipliers removed
    "penalty",     # service inflation: faults, stragglers, degradation
    "network",     # cluster hops of the winning attempt
    "hedge_wait",  # armed hedge delay the request sat out
    "recovery",    # a failed attempt's lifetime before failover
    "backoff",     # retry backoff between queue timeouts
    "other",       # unexplained remainder (kept, never hidden)
)


@dataclass
class Segment:
    """One chronological piece of a request's blocking chain."""

    kind: str
    dur_ms: float
    node: Optional[int] = None
    shard: Optional[int] = None
    cause: Optional[str] = None


@dataclass
class CriticalPath:
    """The reconstructed blocking chain of one request."""

    req: int
    id: str
    outcome: str
    arrival_ms: float
    end_ms: float
    segments: List[Segment] = field(default_factory=list)

    @property
    def total_ms(self) -> float:
        return self.end_ms - self.arrival_ms

    def by_kind(self) -> Dict[str, float]:
        """Segment durations summed per kind (only kinds present)."""
        out: Dict[str, float] = {}
        for seg in self.segments:
            out[seg.kind] = out.get(seg.kind, 0.0) + seg.dur_ms
        return out


def check_conservation(path: CriticalPath) -> float:
    """Sequential left-to-right residual; exactly ``0.0`` when conserved.

    This is the invariant the pinned suites lock: subtracting each
    segment duration from the total in order must land on exact float
    zero, because the last segment's duration is defined as that prefix
    remainder by :func:`_seal_columns`.
    """
    residual = path.total_ms
    for seg in path.segments:
        residual -= seg.dur_ms
    return residual


# -- single box ---------------------------------------------------------------

#: Lifecycle event kinds the single-box extractor reads, by code.  Any
#: other kind (code -1) is instantaneous: it moves neither the cursor nor
#: the service multiplier.
LIFECYCLE_KINDS = (
    "arrive", "retry_arrive", "dispatch", "complete",
    "timeout_retry", "shed", "expired", "timeout",
)
LIFECYCLE_CODES = {kind: code for code, kind in enumerate(LIFECYCLE_KINDS)}
(
    _ARRIVE, _RETRY_ARRIVE, _DISPATCH, _COMPLETE,
    _TIMEOUT_RETRY, _SHED, _EXPIRED, _TIMEOUT,
) = range(len(LIFECYCLE_KINDS))

#: Causes a single-box segment can carry, by code (-1: none).
_SINGLE_CAUSES = ("slowdown", "shed", "expired", "timeout")

(
    _QUEUE, _SERVICE, _PENALTY, _NETWORK, _HEDGE_WAIT, _RECOVERY, _BACKOFF, _OTHER,
) = range(len(SEGMENT_KINDS))

#: The segment an event closes, and its cause, indexed by lifecycle code
#: + 1 (other kinds, then :data:`LIFECYCLE_KINDS` in order); -1: none.
_A_KIND = np.array(
    [-1, -1, _BACKOFF, _QUEUE, _SERVICE, _QUEUE, _QUEUE, _QUEUE, _QUEUE],
    dtype=np.int8,
)
_A_CAUSE = np.array([-1, -1, -1, -1, -1, -1, 1, 2, 3], dtype=np.int8)


def _dispatch_multiplier(attrs: Dict[str, object]) -> float:
    """Service inflation recorded at dispatch (absent attrs count as 1)."""
    mult = 1.0
    for key in ("fault_mult", "straggler_mult", "scale"):
        value = attrs.get(key)
        if value is not None:
            mult *= float(value)
    return mult


@dataclass
class Lifecycles:
    """Single-box request lifecycles as columns: the extractor's input.

    Request ``i`` (index ``req[i]`` in its run, exemplar id ``ids(i)``)
    arrived at ``arrival[i]``, ended at ``end[i]`` with outcome
    ``outcome_names[outcome[i]]``, and ran on core ``node[i]`` (-1: it
    never ran).  Its events are rows ``ev_ptr[i]:ev_ptr[i + 1]`` of the
    event columns, in the order they happened: a kind code into
    :data:`LIFECYCLE_KINDS` (-1 for any other kind), a time, and on
    ``dispatch`` rows the :func:`_dispatch_multiplier` (1.0 elsewhere).
    """

    req: np.ndarray
    ids: Callable[[int], str]
    outcome: np.ndarray
    outcome_names: Sequence[str]
    arrival: np.ndarray
    end: np.ndarray
    node: np.ndarray
    ev_ptr: np.ndarray
    ev_kind: np.ndarray
    ev_t: np.ndarray
    ev_mult: np.ndarray

    @classmethod
    def from_records(cls, records: Sequence[Dict[str, object]]) -> "Lifecycles":
        """Parse single-box request-log records (e.g. reloaded JSONL)."""
        names: Dict[str, int] = {}
        outcome: List[int] = []
        node: List[int] = []
        counts: List[int] = []
        ev_kind: List[int] = []
        ev_t: List[float] = []
        ev_mult: List[float] = []
        for rec in records:
            outcome.append(names.setdefault(str(rec["outcome"]), len(names)))
            core = rec.get("core")
            node.append(int(core) if core is not None else -1)
            events = rec.get("events", [])
            counts.append(len(events))
            for event in events:
                code = LIFECYCLE_CODES.get(str(event.get("kind")), -1)
                ev_kind.append(code)
                ev_t.append(float(event["t_ms"]))
                ev_mult.append(
                    _dispatch_multiplier(event) if code == _DISPATCH else 1.0
                )
        ids = [str(rec["id"]) for rec in records]
        return cls(
            req=np.array([int(rec["req"]) for rec in records], dtype=np.int64),
            ids=ids.__getitem__,
            outcome=np.array(outcome, dtype=np.int64),
            outcome_names=list(names),
            arrival=np.array(
                [float(rec["arrival_ms"]) for rec in records], dtype=np.float64
            ),
            end=np.array([float(rec["end_ms"]) for rec in records], dtype=np.float64),
            node=np.array(node, dtype=np.int64),
            ev_ptr=np.concatenate(([0], np.cumsum(counts, dtype=np.int64))),
            ev_kind=np.array(ev_kind, dtype=np.int64),
            ev_t=np.array(ev_t, dtype=np.float64),
            ev_mult=np.array(ev_mult, dtype=np.float64),
        )


def extract_lifecycles(lc: Lifecycles) -> "PathTable":
    """The blocking chain of every request in ``lc``, as numpy columns.

    The same walk a scalar cursor would make through each request's
    events, for all requests at once.  Every known event moves the cursor
    to its time (``arrive`` to the later of the two) and closes the
    interval since the cursor as a segment: ``backoff`` before a
    ``retry_arrive``; ``queue`` before a ``dispatch``, ``timeout_retry``,
    ``shed``, ``expired`` or ``timeout`` (the last three name themselves
    as its cause); before a ``complete``, ``service`` = span / the
    multiplier of the latest dispatch, and ``penalty`` = span - service
    (cause ``slowdown``).  Empty intervals make no segment.  Time after
    the last event is ``other``, and :func:`_seal_columns` sets
    each path's last segment.  Every float operation is the scalar
    walk's, in the same order, so durations are bit-identical to it.
    """
    ptr = lc.ev_ptr
    kind, t = lc.ev_kind, lc.ev_t
    rows = np.arange(t.size)
    counts = np.diff(ptr)
    first = np.repeat(ptr[:-1], counts)  # row of each event's first sibling

    # Cursor before each event: the time the previous known event of the
    # same request set, else the arrival.
    known = kind >= 0
    setter = rows if known.all() else np.maximum.accumulate(np.where(known, rows, -1))
    prev = np.concatenate(([-1], setter[:-1]))[: t.size]
    fresh = np.flatnonzero(prev < first)
    fresh_arrival = np.repeat(lc.arrival, counts)[fresh]
    after = t.copy()

    def cursor_before() -> np.ndarray:
        before = after[np.maximum(prev, 0)]
        before[fresh] = fresh_arrival
        return before

    before = cursor_before()
    arrive = np.flatnonzero(kind == _ARRIVE)
    moved = arrive[before[arrive] > t[arrive]]
    if moved.size:
        # An arrive moves the cursor to the later time.  It only opens a
        # lifecycle, so one refresh makes every later cursor exact.
        after[moved] = before[moved]
        before = cursor_before()

    # Up to two segments per event: "a" (backoff, queue or service), then
    # "b" (the penalty after a service).
    a_kind = _A_KIND[kind + 1]
    a_dur = t - before
    a_on = (a_kind >= 0) & (t > before)
    complete = np.flatnonzero(kind == _COMPLETE)
    dispatch = np.maximum.accumulate(np.where(kind == _DISPATCH, rows, -1))[complete]
    mult = np.where(
        dispatch >= first[complete], lc.ev_mult[np.maximum(dispatch, 0)], 1.0
    )
    span = a_dur[complete]
    with np.errstate(divide="ignore", invalid="ignore"):
        base = np.where(mult > 0, span / mult, span)
    penalty = span - base
    a_dur[complete] = base
    a_on[complete] = base > 0.0
    b_on = np.zeros(t.size, dtype=bool)
    b_on[complete] = penalty != 0.0

    cum = np.concatenate(([0], np.cumsum(a_on + b_on.view(np.int8))))
    ev_segs = cum[ptr[1:]] - cum[ptr[:-1]]

    # Cursor after each request's last event.
    cursor_end = lc.arrival.copy()
    ran = np.flatnonzero(counts > 0)
    last_setter = setter[ptr[1:][ran] - 1]
    ok = last_setter >= ptr[:-1][ran]
    cursor_end[ran[ok]] = after[last_setter[ok]]

    total = lc.end - lc.arrival
    late = lc.end > cursor_end
    tail_on = late | ((ev_segs == 0) & (total != 0.0))
    seg_counts = ev_segs + tail_on
    seg_ptr = np.concatenate(([0], np.cumsum(seg_counts)))
    n_seg = int(seg_ptr[-1])
    seg_kind = np.empty(n_seg, dtype=np.int8)
    seg_dur = np.empty(n_seg, dtype=np.float64)
    seg_cause = np.empty(n_seg, dtype=np.int8)
    seg_node = np.repeat(lc.node, seg_counts)

    # Segment slot of each event's "a": its request's first slot plus the
    # segments earlier events of the request made.
    pos_a = np.repeat(seg_ptr[:-1] - cum[ptr[:-1]], counts) + cum[:-1]
    on = np.flatnonzero(a_on)
    at = pos_a[on]
    seg_kind[at] = a_kind[on]
    seg_dur[at] = a_dur[on]
    seg_cause[at] = _A_CAUSE[kind[on] + 1]
    on = np.flatnonzero(b_on)
    at = pos_a[on] + a_on[on]  # after its service, if that is on
    seg_kind[at] = _PENALTY
    seg_dur[at] = penalty[b_on[complete]]
    seg_cause[at] = 0
    tail = seg_ptr[1:][tail_on] - 1
    seg_kind[tail] = _OTHER
    seg_dur[tail] = 0.0  # set by the seal below: it is the last segment
    seg_cause[tail] = -1
    # An empty path with a non-zero total gets a bare "other" (no node).
    seg_node[seg_ptr[1:][tail_on & ~late] - 1] = -1
    _seal_columns(seg_ptr, seg_dur, total)

    return PathTable(
        req=lc.req, ids=lc.ids, outcome=lc.outcome,
        outcome_names=lc.outcome_names, arrival=lc.arrival, end=lc.end,
        seg_ptr=seg_ptr, seg_kind=seg_kind, seg_dur=seg_dur,
        seg_node=seg_node, seg_shard=np.full(n_seg, -1, dtype=np.int64),
        seg_cause=seg_cause, cause_names=_SINGLE_CAUSES,
    )


@dataclass
class FastLifecycles:
    """Fast-path request lifecycles as columns: the closed form's input.

    Request ``i`` (index ``req[i]``, exemplar id ``ids(i)``, outcome
    ``outcome_names[outcome[i]]``) arrived at ``arrival[i]``, was
    dispatched unscaled on core ``node[i]`` at ``start[i]`` and completed
    at ``end[i]``.  As a :class:`Lifecycles` table each request would hold
    exactly one ``dispatch`` (multiplier 1) and one ``complete`` event.
    """

    req: np.ndarray
    ids: Callable[[int], str]
    outcome: np.ndarray
    outcome_names: Sequence[str]
    arrival: np.ndarray
    start: np.ndarray
    end: np.ndarray
    node: np.ndarray


def extract_fast(fl: FastLifecycles) -> "PathTable":
    """The blocking chain of every fast-path request, in closed form.

    For finite times this is :func:`extract_lifecycles` over the
    equivalent dispatch/complete table, bit for bit, without the event
    walk.  A path holds a ``queue`` when ``start > arrival``, then a
    ``service`` when ``end - start > 0``, both on the request's core; a
    path with neither is a bare ``other`` (no node) unless its total is
    zero.  :func:`_seal_columns` makes each path's last segment its total
    minus the segments before it, so every segment starts as that
    remainder and only a queue ahead of a service gets its own duration.
    """
    arrival, start, end = fl.arrival, fl.start, fl.end
    last_dur = end - arrival
    queue_on = start > arrival
    service_on = end - start > 0.0
    bare = ~(queue_on | service_on) & (last_dur != 0.0)
    counts = queue_on.view(np.int8) + service_on.view(np.int8) + bare.view(np.int8)
    seg_ptr = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=seg_ptr[1:])
    first = seg_ptr[:-1]
    both = queue_on & service_on
    wait = start - arrival
    np.subtract(last_dur, wait, out=last_dur, where=both)
    seg_dur = np.repeat(last_dur, counts)
    seg_dur[first[both]] = wait[both]
    seg_node = np.repeat(fl.node, counts)
    n_seg = seg_dur.size
    seg_kind = np.full(n_seg, _SERVICE, dtype=np.int8)
    seg_kind[first[queue_on]] = _QUEUE
    bare_at = first[bare]  # empty unless some path is bare
    seg_kind[bare_at] = _OTHER
    seg_node[bare_at] = -1
    return PathTable(
        req=fl.req, ids=fl.ids, outcome=fl.outcome,
        outcome_names=fl.outcome_names, arrival=arrival, end=end,
        seg_ptr=seg_ptr, seg_kind=seg_kind, seg_dur=seg_dur,
        seg_node=seg_node, seg_shard=np.full(n_seg, -1, dtype=np.int64),
        seg_cause=np.full(n_seg, -1, dtype=np.int8), cause_names=_SINGLE_CAUSES,
    )


def _seal_columns(seg_ptr: np.ndarray, seg_dur: np.ndarray, total: np.ndarray) -> None:
    """Fold float dust into the tail: each non-empty path's last segment
    becomes its total minus the segments before it, subtracted left to
    right as :func:`check_conservation` does."""
    counts = np.diff(seg_ptr)
    remainder = total.copy()
    live = np.flatnonzero(counts > 1)
    j = 0
    while live.size:
        remainder[live] -= seg_dur[seg_ptr[live] + j]
        j += 1
        live = live[counts[live] > j + 1]
    filled = counts > 0
    seg_dur[seg_ptr[1:][filled] - 1] = remainder[filled]


@dataclass(eq=False)
class PathTable(Sequence[CriticalPath]):
    """Critical paths held as columns; ``table[i]`` builds one
    :class:`CriticalPath`.

    Path ``i`` is request ``req[i]`` (id ``ids(i)``, outcome
    ``outcome_names[outcome[i]]``) from ``arrival[i]`` to ``end[i]``.  Its
    segments are rows ``seg_ptr[i]:seg_ptr[i + 1]``: kind codes into
    :data:`SEGMENT_KINDS`, durations, node and shard (-1: none), and cause
    codes into ``cause_names`` (-1: none).  :func:`aggregate_profiles`
    reads the columns without building paths.
    """

    req: np.ndarray
    ids: Callable[[int], str]
    outcome: np.ndarray
    outcome_names: Sequence[str]
    arrival: np.ndarray
    end: np.ndarray
    seg_ptr: np.ndarray
    seg_kind: np.ndarray
    seg_dur: np.ndarray
    seg_node: np.ndarray
    seg_shard: np.ndarray
    seg_cause: np.ndarray
    cause_names: Sequence[str]

    @property
    def total_ms(self) -> np.ndarray:
        """End-to-end time of every path."""
        return self.end - self.arrival

    def __len__(self) -> int:
        return int(self.arrival.size)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return [self._path(i) for i in range(*index.indices(len(self)))]
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("path index out of range")
        return self._path(i)

    def __iter__(self) -> Iterator[CriticalPath]:
        for i in range(len(self)):
            yield self._path(i)

    def _path(self, i: int) -> CriticalPath:
        lo, hi = int(self.seg_ptr[i]), int(self.seg_ptr[i + 1])
        segments = [
            Segment(
                SEGMENT_KINDS[kind],
                dur,
                node if node >= 0 else None,
                shard if shard >= 0 else None,
                self.cause_names[cause] if cause >= 0 else None,
            )
            for kind, dur, node, shard, cause in zip(
                self.seg_kind[lo:hi].tolist(),
                self.seg_dur[lo:hi].tolist(),
                self.seg_node[lo:hi].tolist(),
                self.seg_shard[lo:hi].tolist(),
                self.seg_cause[lo:hi].tolist(),
            )
        ]
        return CriticalPath(
            req=int(self.req[i]),
            id=self.ids(i),
            outcome=self.outcome_names[int(self.outcome[i])],
            arrival_ms=float(self.arrival[i]),
            end_ms=float(self.end[i]),
            segments=segments,
        )


# -- cluster ------------------------------------------------------------------

#: Why a shard call was sent, by code (:attr:`CallTable.call_via`).
CALL_REASONS = ("primary", "failover", "hedge")
_PRIMARY, _FAILOVER, _HEDGE = range(len(CALL_REASONS))
#: The event kinds :meth:`CallTable.parse` reads.
_CALL_LINES = ("shard_call", "call_ok", "call_failed", "hedge", "failover")


@dataclass
class CallTable:
    """Cluster request-log records as columns: one row per shard call.

    Request ``i`` (index ``req[i]``, id ``ids(i)``, outcome
    ``outcome_names[outcome[i]]``) arrived at ``arrival[i]``, ended at
    ``end[i]`` and logged ``latency[i]`` (NaN: none).  Its gather slots
    are rows ``slot_ptr[i]:slot_ptr[i + 1]``, by ascending shard:
    ``slot_listed`` marks the shards its record lists, ``slot_call`` is
    the call that resolved the slot (its first delivery, else its last
    failure; -1: neither) and ``slot_hedges`` counts its ``hedge`` lines,
    whose window quantiles ``hedge_q`` holds in log order.

    Call ``c`` of slot ``call_slot[c]`` went to ``call_node[c]`` at
    ``call_submit[c]`` (NaN: an outcome with no ``shard_call`` line) and
    resolved at ``call_end[c]`` as the ``call_order[c]``-th outcome in
    log order (NaN / -1: never).  A delivery logs ``call_latency``,
    ``call_queue``, ``call_service`` and ``call_slow``; a failure its
    cause, ``cause_names[call_cause[c]]`` (code 0 is the slowdown cause
    ``node_slow``).  It was sent as ``CALL_REASONS[call_via[c]]``: a
    failover of the failed call ``call_prev[c]``, or a hedge armed when
    ``call_prev[c]`` went out that fired against window quantile
    ``call_q[c]``.  Missing values are NaN (a latency 0.0), missing rows -1.
    """

    req: np.ndarray
    ids: Callable[[int], str]
    outcome: np.ndarray
    outcome_names: Sequence[str]
    arrival: np.ndarray
    end: np.ndarray
    latency: np.ndarray
    slot_ptr: np.ndarray
    slot_shard: np.ndarray
    slot_listed: np.ndarray
    slot_call: np.ndarray
    slot_hedges: np.ndarray
    hedge_q: np.ndarray
    call_slot: np.ndarray
    call_node: np.ndarray
    call_submit: np.ndarray
    call_end: np.ndarray
    call_order: np.ndarray
    call_ok: np.ndarray
    call_latency: np.ndarray
    call_queue: np.ndarray
    call_service: np.ndarray
    call_slow: np.ndarray
    call_cause: np.ndarray
    cause_names: Sequence[str]
    call_via: np.ndarray
    call_prev: np.ndarray
    call_q: np.ndarray

    @classmethod
    def from_records(cls, records: Iterable[Dict[str, object]]) -> "CallTable":
        """Parse the records with ``shards`` among ``records`` (e.g.
        reloaded JSONL), in order, through :meth:`parse`."""
        return cls.parse(
            (
                rec["req"], rec["id"], rec["outcome"], rec["arrival_ms"],
                rec["end_ms"], rec.get("latency_ms"), rec["shards"],
                [(e.get("kind"), e.get("t_ms", 0.0), e) for e in rec.get("events", ())],
            )
            for rec in records
            if rec.get("shards") is not None
        )

    @classmethod
    def parse(cls, requests: Iterable[tuple]) -> "CallTable":
        """The one reader of cluster requests' events, live or reloaded.

        Each request is ``(req, id, outcome, arrival, end, latency,
        shards, events)`` (latency None or NaN: none), and each event a
        ``(kind, t_ms, attrs)`` row in log order.  A request's slots are
        its listed shards and any shard its lines name.  An outcome belongs
        to its slot's unresolved call to the same node (the router never
        sends a slot to a node twice), else to a row of its own.  A call
        is a failover or a hedge when such a line of its slot names its
        node and submit time.  A failover replaced the slot's first call
        to fail at that instant, if sent earlier (else the hedge rule
        decides); a hedge was armed by the slot's latest call sent before
        it.
        """
        nan = float("nan")
        outcomes: Dict[str, int] = {}
        causes: Dict[str, int] = {"node_slow": 0}
        heads: List[Tuple[int, str, int, float, float, float]] = []
        s_count, s_shard, s_listed, s_call, s_hedges = [], [], [], [], []
        hedge_q: List[float] = []
        # Per call: slot, node, submit time, outcome attrs, whether it
        # delivered, its log position and time, cause code, and how it
        # was sent (via, prev, q).
        columns: Tuple[list, ...] = tuple([] for _ in range(11))
        (
            c_slot, c_node, c_submit, c_line, c_ok, c_order, c_end, c_cause,
            c_via, c_prev, c_q,
        ) = columns

        def call(node: int, t: float) -> int:
            values = (-1, node, t, None, False, -1, nan, -1, _PRIMARY, -1, nan)
            for column, value in zip(columns, values):
                column.append(value)
            return len(c_node) - 1

        def sent_as(shard: int, rows: List[int], marks: Dict[Tuple, float]) -> None:
            """Mark the failovers and hedges among one slot's calls."""
            for r in rows:
                t, node = c_submit[r], c_node[r]
                if ("failover", shard, t, node) in marks:
                    fails = [
                        (c_order[f], f) for f in rows
                        if c_end[f] == t and not c_ok[f]
                    ]
                    if fails and c_submit[min(fails)[1]] < t:
                        c_via[r], c_prev[r] = _FAILOVER, min(fails)[1]
                        continue
                if ("hedge", shard, t, node) in marks:
                    armed = (a for a in rows if c_submit[a] < t)
                    c_via[r] = _HEDGE
                    c_prev[r] = max(armed, key=c_submit.__getitem__, default=-1)
                    c_q[r] = marks[("hedge", shard, t, node)]

        position = count()  # of outcome lines in the log
        for req, rid, name, arrival, end, lat, shards, events in requests:
            heads.append((
                int(req), str(rid), outcomes.setdefault(str(name), len(outcomes)),
                float(arrival), float(end), nan if lat is None else float(lat),
            ))
            slots: Dict[int, List[int]] = {int(s): [] for s in shards}
            listed = set(slots)
            marks: Dict[Tuple, float] = {}
            hedges: Dict[int, int] = {}
            won: Dict[int, int] = {}  # shard -> its first delivery
            lost: Dict[int, int] = {}  # shard -> its last failure
            for kind, t, attrs in events:
                shard = attrs.get("shard")
                if shard is None:
                    continue
                shard = int(shard)
                rows = slots.setdefault(shard, [])
                if kind not in _CALL_LINES:
                    continue
                t = float(t)
                node = int(attrs["node"])
                if kind == "shard_call":
                    rows.append(call(node, t))
                elif kind == "call_ok" or kind == "call_failed":
                    for row in rows:
                        if c_node[row] == node and c_line[row] is None:
                            break
                    else:
                        row = call(node, nan)
                        rows.append(row)
                    c_line[row], c_order[row], c_end[row] = attrs, next(position), t
                    if kind == "call_ok":
                        c_ok[row] = True
                        won.setdefault(shard, row)
                    else:
                        lost[shard] = row
                        if attrs.get("cause"):
                            cause = str(attrs["cause"])
                            c_cause[row] = causes.setdefault(cause, len(causes))
                else:  # a hedge or a failover
                    q = attrs.get("q_ms")
                    marks[(kind, shard, t, node)] = nan if q is None else float(q)
                    if kind == "hedge":
                        hedges[shard] = hedges.get(shard, 0) + 1
                        hedge_q.append(marks[(kind, shard, t, node)])
            for shard in sorted(slots):
                for r in slots[shard]:
                    c_slot[r] = len(s_shard)
                s_shard.append(shard)
                s_listed.append(shard in listed)
                s_call.append(won.get(shard, lost.get(shard, -1)))
                s_hedges.append(hedges.get(shard, 0))
                if marks:
                    sent_as(shard, slots[shard], marks)
            s_count.append(len(slots))

        reqs, ids, outcome, arrival, end, latency = zip(*heads) if heads else [()] * 6
        ok = np.array(c_ok, dtype=bool)
        # What each delivery logged (None and absent read as NaN, an
        # absent latency as 0.0).
        logged = np.full((ok.size, 4), nan)
        logged[:, 0] = 0.0
        logged[ok] = np.array([
            (line.get("latency_ms", 0.0), line.get("queue_ms"),
             line.get("service_ms"), line.get("slow"))
            for line, good in zip(c_line, c_ok) if good
        ], dtype=np.float64).reshape(-1, 4)

        def ints(values, dtype=np.int64) -> np.ndarray:
            return np.array(values, dtype=dtype)

        def floats(values) -> np.ndarray:
            return np.array(values, dtype=np.float64)

        return cls(
            req=ints(reqs), ids=list(ids).__getitem__, outcome=ints(outcome),
            outcome_names=list(outcomes), arrival=floats(arrival), end=floats(end),
            latency=floats(latency),
            slot_ptr=np.concatenate(([0], np.cumsum(s_count, dtype=np.int64))),
            slot_shard=ints(s_shard), slot_listed=np.array(s_listed, dtype=bool),
            slot_call=ints(s_call), slot_hedges=ints(s_hedges),
            hedge_q=floats(hedge_q), call_slot=ints(c_slot), call_node=ints(c_node),
            call_submit=floats(c_submit), call_end=floats(c_end),
            call_order=ints(c_order), call_ok=ok,
            call_latency=logged[:, 0].copy(), call_queue=logged[:, 1].copy(),
            call_service=logged[:, 2].copy(), call_slow=logged[:, 3].copy(),
            call_cause=ints(c_cause), cause_names=list(causes),
            call_via=ints(c_via, np.int8), call_prev=ints(c_prev), call_q=floats(c_q),
        )

    def __len__(self) -> int:
        return int(self.arrival.size)

    @property
    def shed(self) -> np.ndarray:
        """Requests dropped at arrival."""
        names = list(self.outcome_names)
        return self.outcome == (names.index("shed") if "shed" in names else -1)

    @property
    def slot_owner(self) -> np.ndarray:
        """The request of every slot."""
        return np.repeat(np.arange(len(self)), np.diff(self.slot_ptr))

    @property
    def slot_resolve(self) -> np.ndarray:
        """When each slot stopped blocking its gather: the end of its
        resolving call, else (no routable replica) its request's arrival."""
        call = self.slot_call
        out = self.arrival[self.slot_owner]
        has = call >= 0
        out[has] = self.call_end[call[has]]
        return out

    @property
    def slot_won(self) -> np.ndarray:
        """Slots resolved by a delivery."""
        call = self.slot_call
        return (call >= 0) & self.call_ok[np.maximum(call, 0)]


def extract_calls(calls: CallTable) -> PathTable:
    """The blocking chain of every request in ``calls``.

    The winning attempt resolved the critical slot, the one that resolved
    last (smallest shard on ties).  Its interval splits into ``network``
    (two hops), on-node ``queue``, base ``service`` and slowdown
    ``penalty`` (cause ``node_slow``) when its delivery logged them, else
    into one ``service``, or one ``recovery`` for a failure.  The walk
    then goes back through why each attempt was sent: a failover charges
    the attempt it replaced to ``recovery`` and continues from it, a
    hedge its delay since the arming call to ``hedge_wait``; anything
    else sent after the arrival is ``other``.  A shed request, or one
    without a resolved critical slot, has no segments; a winner with no
    ``shard_call`` line is one ``other`` from the arrival.
    :func:`_seal_columns` sets each path's last segment.
    """
    total = calls.end - calls.arrival
    (
        arrival, totals, shed, ptr, shard_of, slot_call, resolve, node, submit,
        end, ok, cause, queue, service, slow, via, prev,
    ) = (column.tolist() for column in (
        calls.arrival, total, calls.shed, calls.slot_ptr, calls.slot_shard,
        calls.slot_call, calls.slot_resolve, calls.call_node, calls.call_submit,
        calls.call_end, calls.call_ok, calls.call_cause, calls.call_queue,
        calls.call_service, calls.call_slow, calls.call_via, calls.call_prev,
    ))
    # (kind, duration, node, shard, cause) of every segment, path by path.
    rows: List[Tuple[int, float, int, int, int]] = []
    counts: List[int] = []
    for i, start in enumerate(arrival):
        segs: List[Tuple[int, float, int, int, int]] = []
        slots = range(ptr[i], ptr[i + 1])
        critical = max(slots, key=resolve.__getitem__) if slots else -1
        c = slot_call[critical] if slots and not shed[i] else -1
        if c >= 0:
            shard, n = shard_of[critical], node[c]
            t = submit[c]
            span = end[c] - t
            if isnan(t):  # a delivery with no shard_call line
                segs.append((_OTHER, end[c] - start, -1, shard, -1))
            elif not ok[c]:
                segs.append((_RECOVERY, span, n, shard, cause[c]))
            elif isnan(queue[c]):
                segs.append((_SERVICE, span, n, shard, -1))
            else:
                q = queue[c]
                s = 0.0 if isnan(service[c]) else service[c]
                x = 1.0 if isnan(slow[c]) or slow[c] == 0 else slow[c]
                base = s / x if x > 0 else s
                for kind, dur, why in (
                    (_NETWORK, span - q - s, -1), (_QUEUE, q, -1),
                    (_SERVICE, base, -1), (_PENALTY, s - base, 0),
                ):
                    if dur != 0.0:
                        segs.append((kind, dur, n, shard, why))
            chain: List[Tuple[int, float, int, int, int]] = []
            while t > start:
                p = prev[c]
                if via[c] == _FAILOVER:
                    chain.append((_RECOVERY, t - submit[p], node[p], shard, cause[p]))
                elif via[c] == _HEDGE and p >= 0:
                    chain.append((_HEDGE_WAIT, t - submit[p], -1, shard, -1))
                else:
                    chain.append((_OTHER, t - start, -1, shard, -1))
                    break
                c, t = p, submit[p]
            segs[:0] = chain[::-1]
        if not segs and totals[i] != 0.0:
            segs.append((_OTHER, 0.0, -1, -1, -1))
        counts.append(len(segs))
        rows.extend(segs)
    kind, dur, node, shard, cause = zip(*rows) if rows else [()] * 5
    seg_ptr = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    durations = np.array(dur, dtype=np.float64)
    _seal_columns(seg_ptr, durations, total)
    return PathTable(
        req=calls.req, ids=calls.ids, outcome=calls.outcome,
        outcome_names=calls.outcome_names, arrival=calls.arrival, end=calls.end,
        seg_ptr=seg_ptr, seg_kind=np.array(kind, dtype=np.int8),
        seg_dur=durations, seg_node=np.array(node, dtype=np.int64),
        seg_shard=np.array(shard, dtype=np.int64),
        seg_cause=np.array(cause, dtype=np.int64), cause_names=calls.cause_names,
    )


def _interleave(tables: Sequence[PathTable], which: np.ndarray) -> PathTable:
    """One table of several: path ``i`` is the next unread path of
    ``tables[which[i]]``."""
    # Stack the tables; path i is stacked path source[i].
    source = np.empty(which.size, dtype=np.int64)
    source[np.argsort(which, kind="stable")] = np.arange(which.size)
    stacked = np.concatenate([np.diff(t.seg_ptr) for t in tables])
    counts = stacked[source]
    seg_ptr = np.concatenate(([0], np.cumsum(counts)))
    starts = (np.cumsum(stacked) - stacked)[source]
    rows = np.repeat(starts - seg_ptr[:-1], counts) + np.arange(seg_ptr[-1])
    names: Dict[str, List[str]] = {"outcome": [], "seg_cause": []}

    def stack(column: str, names_of: str = "") -> np.ndarray:
        parts = [getattr(t, column) for t in tables]
        if column in names:  # recode into the union of the tables' names
            merged = names[column]
            for i, t in enumerate(tables):
                theirs = getattr(t, names_of)
                merged.extend(n for n in theirs if n not in merged)
                # Code -1 (no cause) stays -1: the recoding ends in -1.
                parts[i] = np.array([merged.index(n) for n in theirs] + [-1])[parts[i]]
        return np.concatenate(parts)

    ids = [t.ids(i) for t in tables for i in range(len(t))]
    order = source.tolist()
    return PathTable(
        req=stack("req")[source], ids=lambda i: ids[order[i]],
        outcome=stack("outcome", "outcome_names")[source],
        outcome_names=names["outcome"], arrival=stack("arrival")[source],
        end=stack("end")[source], seg_ptr=seg_ptr, seg_kind=stack("seg_kind")[rows],
        seg_dur=stack("seg_dur")[rows], seg_node=stack("seg_node")[rows],
        seg_shard=stack("seg_shard")[rows],
        seg_cause=stack("seg_cause", "cause_names")[rows],
        cause_names=names["seg_cause"],
    )


def extract_critical_path(record: Dict[str, object]) -> CriticalPath:
    """The blocking chain of one request-log record (either layer), as
    :func:`extract_paths` extracts it."""
    return extract_paths([record])[0]


def extract_paths(records: Sequence[Dict[str, object]]) -> PathTable:
    """Extract every record's critical path, in record order.

    A run's lazy records (:attr:`repro.obs.requests.RunLog.records`) hand
    over their columns: a fast-path run's go to the closed form
    :func:`extract_fast`, a resilient run's to :func:`extract_lifecycles`,
    a cluster run's call table to :func:`extract_calls`; no record dict
    is built.  Otherwise cluster records (with ``shards``) go through a
    :class:`CallTable`, single-box ones through a :class:`Lifecycles`
    table, and a mix is merged back into record order.
    """
    lifecycles = getattr(records, "lifecycles", None)
    columns = lifecycles() if lifecycles is not None else None
    if isinstance(columns, FastLifecycles):
        return extract_fast(columns)
    if isinstance(columns, CallTable):
        return extract_calls(columns)
    if columns is not None:
        return extract_lifecycles(columns)
    cluster = extract_calls(CallTable.from_records(records))
    if len(cluster) == len(records):
        return cluster
    single = extract_lifecycles(
        Lifecycles.from_records([rec for rec in records if rec.get("shards") is None])
    )
    if not len(cluster):
        return single
    which = np.array([rec.get("shards") is None for rec in records], dtype=np.int64)
    return _interleave((cluster, single), which)


# -- aggregation --------------------------------------------------------------


def _nearest_rank(values: np.ndarray, q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if values.size == 0:
        return 0.0
    ordered = np.sort(values)
    rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * len(ordered))) - 1))
    return float(ordered[rank])


def _sequential_sum(values: np.ndarray) -> float:
    """``0.0 + v0 + v1 + ...`` added left to right, as a scalar loop does
    (cumsum is sequential; ``+ 0.0`` turns a leading -0.0 into the loop's
    0.0 start)."""
    return float(np.cumsum(values)[-1]) + 0.0 if values.size else 0.0


def _group_sums(
    keys: np.ndarray, values: np.ndarray
) -> Tuple[List[int], List[float], List[int]]:
    """Per distinct key, ascending: the :func:`_sequential_sum` of its
    values in input order, and the input index of its first value."""
    if keys.size == 0:
        return [], [], []
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
    stops = np.append(starts[1:], ranked.size)
    grouped = values[order]
    sums = [
        _sequential_sum(grouped[lo:hi])
        for lo, hi in zip(starts.tolist(), stops.tolist())
    ]
    return ranked[starts].tolist(), sums, order[starts].tolist()


def bottleneck(segments: Dict[str, float]) -> Optional[str]:
    """The dominant segment kind of a profile — the scalar signal the
    autoscaler ("queue" = add capacity) and autotuner ("hedge_wait" =
    lower the floor; "penalty" = partition the cache) key off."""
    candidates = [(dur, kind) for kind, dur in segments.items() if dur > 0]
    if not candidates:
        return None
    # Max duration; canonical order breaks ties deterministically.
    return max(
        candidates, key=lambda dk: (dk[0], -SEGMENT_KINDS.index(dk[1]))
    )[1]


def aggregate_profiles(
    table: PathTable,
    scenario: str = "",
    tail_quantile: float = 99.0,
) -> List[Dict[str, object]]:
    """Fleet-wide "where does the time go" profiles over extracted paths.

    Returns schema-valid ``critpath_profile`` records (one per scope):
    ``overall``, the latency tail at ``tail_quantile`` (requests at or
    above that percentile of end-to-end time), and one per node and per
    shard that appears on any critical path.  Each record carries the
    summed per-kind segment milliseconds and the resulting bottleneck.
    The table is read column-wise; every sum adds in path and segment
    order.
    """
    totals = table.total_ms
    owner = np.repeat(np.arange(len(table)), np.diff(table.seg_ptr))
    profiles: List[Dict[str, object]] = []

    def emit(
        scope: str, requests: int, total: float, segments: Dict[str, float]
    ) -> None:
        profiles.append(
            {
                "kind": "critpath_profile",
                "schema_version": CRITPATH_SCHEMA_VERSION,
                "scenario": scenario,
                "scope": scope,
                "requests": requests,
                "total_ms": total,
                "segments": {k: segments[k] for k in sorted(segments)},
                "bottleneck": bottleneck(segments),
            }
        )

    def profile(scope: str, chosen: np.ndarray) -> None:
        on_path = chosen[owner]
        kinds, sums, _ = _group_sums(table.seg_kind[on_path], table.seg_dur[on_path])
        emit(
            scope,
            int(np.count_nonzero(chosen)),
            _sequential_sum(totals[chosen]),
            {SEGMENT_KINDS[k]: s for k, s in zip(kinds, sums)},
        )

    profile("overall", np.ones(len(table), dtype=bool))
    cut = _nearest_rank(totals, tail_quantile)
    profile(f"tail_p{tail_quantile:g}", (totals >= cut) & (totals > 0))
    n_kinds = len(SEGMENT_KINDS)
    width = max(len(table), 1)
    for column, prefix in ((table.seg_node, "node"), (table.seg_shard, "shard")):
        has = column >= 0
        keys = column[has].astype(np.int64)
        groups, sums, firsts = _group_sums(
            keys * n_kinds + table.seg_kind[has], table.seg_dur[has]
        )
        by_key: Dict[int, List[Tuple[int, str, float]]] = {}
        for group, total, first in zip(groups, sums, firsts):
            by_key.setdefault(group // n_kinds, []).append(
                (first, SEGMENT_KINDS[group % n_kinds], total)
            )
        # A path counts once per node (shard) any of its segments names.
        pairs = np.unique(keys * width + owner[has])
        scope_keys, requests = np.unique(pairs // width, return_counts=True)
        for key, count in zip(scope_keys.tolist(), requests.tolist()):
            # Kinds in first-seen order, as the profile's dict filled.
            segments = {kind: total for _, kind, total in sorted(by_key[key])}
            emit(f"{prefix}:{key}", count, sum(segments.values()), segments)
    return profiles
