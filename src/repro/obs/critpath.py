"""Critical-path extraction: where each request's latency actually went.

The request log says a request took 38 ms and missed its deadline; this
module says *which segment of its timeline was on the blocking chain* —
the on-node queue wait, the service time itself, the contention penalty a
noisy neighbor added, the network hops, the hedge delay the request sat
out, the failover recovery after a crash, or the retry backoff.  That is
the attribution the paper's Table 1 / fig17 argument needs at request
granularity, and the bottleneck signal the autoscaling and autotuning
layers consume.

Two extractors share one segment taxonomy (:data:`SEGMENT_KINDS`):

* **single box** (:func:`extract_lifecycles`) — walks the lifecycle event
  streams of :mod:`repro.serving.server` / ``fastserve`` chronologically,
  for every request at once, as numpy column operations over a
  :class:`Lifecycles` table: ``arrive→dispatch`` is queueing,
  ``dispatch→complete`` is service with the fault/straggler/degradation
  multiplier carved out as ``penalty``, ``timeout_retry→retry_arrive`` is
  backoff.  A :class:`~repro.obs.requests.RunLog` hands over its columns
  directly; record dicts (e.g. reloaded JSONL) are parsed into the same
  table first.  A fast-path run skips the walk: every request there
  arrives, dispatches once unscaled and completes, so
  :func:`extract_fast` writes its queue and service segments in closed
  form from the arrival, start and end columns, bit-identical to the
  walk.  The result is a :class:`PathTable`, which builds a
  :class:`CriticalPath` only when one is read.
* **cluster** (:func:`_extract_cluster`) — reconstructs the blocking
  chain backward from the slowest gather slot: the winning attempt's
  interval decomposes into ``network`` (two hops), on-node ``queue``,
  base ``service`` and slowdown ``penalty`` (from the ``call_ok``
  attrs the cluster records); a winner submitted by a failover charges
  the failed attempt's interval to ``recovery``; a winner submitted by
  a hedge charges the armed delay to ``hedge_wait``; the walk repeats
  until it reaches the request's arrival.

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
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "CRITPATH_SCHEMA_VERSION",
    "LIFECYCLE_KINDS",
    "SEGMENT_KINDS",
    "CriticalPath",
    "FastLifecycles",
    "Lifecycles",
    "PathTable",
    "Segment",
    "aggregate_profiles",
    "bottleneck",
    "check_conservation",
    "extract_critical_path",
    "extract_fast",
    "extract_lifecycles",
    "extract_paths",
    "profile_records",
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
    remainder by :func:`_seal`.
    """
    residual = path.total_ms
    for seg in path.segments:
        residual -= seg.dur_ms
    return residual


def _seal(path: CriticalPath) -> CriticalPath:
    """Enforce exact conservation by folding float dust into the tail.

    The final chronological segment's duration is *defined* as
    ``total - sum(previous)`` evaluated by the same left-to-right
    subtraction :func:`check_conservation` performs, which makes the
    invariant exact by construction rather than approximately true.
    """
    if not path.segments:
        if path.total_ms != 0.0:
            path.segments.append(Segment("other", 0.0))
        else:
            return path
    remainder = path.total_ms
    for seg in path.segments[:-1]:
        remainder -= seg.dur_ms
    path.segments[-1].dur_ms = remainder
    return path


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

_KIND_CODES = {kind: code for code, kind in enumerate(SEGMENT_KINDS)}
_QUEUE, _SERVICE, _PENALTY, _BACKOFF, _OTHER = (
    _KIND_CODES[k] for k in ("queue", "service", "penalty", "backoff", "other")
)

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
    the last event is ``other``, and :func:`_seal`'s remainder rule sets
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
    walk: a ``queue`` segment when ``start > arrival``, then a ``service``
    segment when ``end - start > 0``, both on the request's core; a bare
    ``other`` (no node) when neither is on and the total is not zero.
    :func:`_seal`'s remainder rule sets each path's last segment, which
    is the service whenever it is on, so only a queue ahead of a service
    keeps its own duration.
    """
    arrival, start, end = fl.arrival, fl.start, fl.end
    total = end - arrival
    queue_on = start > arrival
    service_on = end - start > 0.0
    bare = ~(queue_on | service_on) & (total != 0.0)
    seg_counts = queue_on.astype(np.int64) + service_on + bare
    seg_ptr = np.concatenate(([0], np.cumsum(seg_counts)))
    n_seg = int(seg_ptr[-1])
    first = seg_ptr[:-1]
    seg_kind = np.empty(n_seg, dtype=np.int8)
    seg_kind[first[queue_on]] = _QUEUE
    seg_kind[(first + queue_on)[service_on]] = _SERVICE
    seg_kind[first[bare]] = _OTHER
    seg_node = np.repeat(fl.node, seg_counts)
    seg_node[first[bare]] = -1
    seg_dur = np.empty(n_seg, dtype=np.float64)
    both = queue_on & service_on
    lead = first[both]
    seg_dur[lead] = start[both] - arrival[both]
    remainder = total.copy()
    remainder[both] -= seg_dur[lead]
    filled = seg_counts > 0
    seg_dur[seg_ptr[1:][filled] - 1] = remainder[filled]
    return PathTable(
        req=fl.req, ids=fl.ids, outcome=fl.outcome,
        outcome_names=fl.outcome_names, arrival=arrival, end=end,
        seg_ptr=seg_ptr, seg_kind=seg_kind, seg_dur=seg_dur,
        seg_node=seg_node, seg_shard=np.full(n_seg, -1, dtype=np.int64),
        seg_cause=np.full(n_seg, -1, dtype=np.int8), cause_names=_SINGLE_CAUSES,
    )


def _seal_columns(seg_ptr: np.ndarray, seg_dur: np.ndarray, total: np.ndarray) -> None:
    """:func:`_seal` over columns: each non-empty path's last segment
    becomes its total minus the segments before it, left to right."""
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

    def __init__(
        self,
        *,
        req: np.ndarray,
        ids: Callable[[int], str],
        outcome: np.ndarray,
        outcome_names: Sequence[str],
        arrival: np.ndarray,
        end: np.ndarray,
        seg_ptr: np.ndarray,
        seg_kind: np.ndarray,
        seg_dur: np.ndarray,
        seg_node: np.ndarray,
        seg_shard: np.ndarray,
        seg_cause: np.ndarray,
        cause_names: Sequence[str],
    ) -> None:
        self.req = req
        self.ids = ids
        self.outcome = outcome
        self.outcome_names = outcome_names
        self.arrival = arrival
        self.end = end
        self.seg_ptr = seg_ptr
        self.seg_kind = seg_kind
        self.seg_dur = seg_dur
        self.seg_node = seg_node
        self.seg_shard = seg_shard
        self.seg_cause = seg_cause
        self.cause_names = cause_names

    @classmethod
    def from_paths(cls, paths: Sequence[CriticalPath]) -> "PathTable":
        """The columns of already-built paths."""
        outcomes: Dict[str, int] = {}
        causes: Dict[str, int] = {}
        counts, kinds, durs, nodes, shards, cause_codes = [], [], [], [], [], []
        for path in paths:
            counts.append(len(path.segments))
            for seg in path.segments:
                kinds.append(_KIND_CODES[seg.kind])
                durs.append(seg.dur_ms)
                nodes.append(-1 if seg.node is None else seg.node)
                shards.append(-1 if seg.shard is None else seg.shard)
                cause_codes.append(
                    -1 if seg.cause is None
                    else causes.setdefault(seg.cause, len(causes))
                )
        ids = [path.id for path in paths]
        return cls(
            req=np.array([path.req for path in paths], dtype=np.int64),
            ids=ids.__getitem__,
            outcome=np.array(
                [outcomes.setdefault(path.outcome, len(outcomes)) for path in paths],
                dtype=np.int64,
            ),
            outcome_names=list(outcomes),
            arrival=np.array([path.arrival_ms for path in paths], dtype=np.float64),
            end=np.array([path.end_ms for path in paths], dtype=np.float64),
            seg_ptr=np.concatenate(([0], np.cumsum(counts, dtype=np.int64))),
            seg_kind=np.array(kinds, dtype=np.int8),
            seg_dur=np.array(durs, dtype=np.float64),
            seg_node=np.array(nodes, dtype=np.int64),
            seg_shard=np.array(shards, dtype=np.int64),
            seg_cause=np.array(cause_codes, dtype=np.int64),
            cause_names=list(causes),
        )

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


class _SlotLog:
    """Per-gather-slot event index of one cluster request (keyed by shard;
    the gather samples shards without replacement, so the shard IS the
    slot identity)."""

    __slots__ = ("shard", "calls", "oks", "fails", "hedges", "failovers")

    def __init__(self, shard: int) -> None:
        self.shard = shard
        self.calls: List[Tuple[float, int, bool]] = []  # (t, node, hedge)
        self.oks: List[Tuple[float, int, Dict[str, object]]] = []
        self.fails: List[Tuple[float, int, Optional[str]]] = []
        self.hedges: List[Tuple[float, int, Optional[float]]] = []  # (t, node, q_ms)
        self.failovers: List[float] = []

    def resolve(self, arrival: float) -> float:
        """When this slot stopped blocking the gather: first delivery
        (later deliveries are wasted hedges), else the final failure that
        exhausted the replicas, else the arrival (no routable replica)."""
        if self.oks:
            return self.oks[0][0]
        if self.fails:
            return self.fails[-1][0]
        return arrival

    def submit_of(self, node: int) -> Optional[float]:
        """Submit time of this slot's attempt on ``node`` (the router
        never reuses a tried node within a slot, so it is unique)."""
        for t, n, _ in self.calls:
            if n == node:
                return t
        return None


def _index_slots(record: Dict[str, object]) -> Dict[int, _SlotLog]:
    slots: Dict[int, _SlotLog] = {}
    for shard in record.get("shards", []):
        slots.setdefault(int(shard), _SlotLog(int(shard)))
    for event in record.get("events", []):
        shard = event.get("shard")
        if shard is None:
            continue
        slot = slots.setdefault(int(shard), _SlotLog(int(shard)))
        kind = event.get("kind")
        t = float(event.get("t_ms", 0.0))
        if kind == "shard_call":
            slot.calls.append((t, int(event["node"]), bool(event.get("hedge"))))
        elif kind == "call_ok":
            slot.oks.append((t, int(event["node"]), event))
        elif kind == "call_failed":
            cause = event.get("cause")
            slot.fails.append(
                (t, int(event["node"]), str(cause) if cause else None)
            )
        elif kind == "hedge":
            q = event.get("q_ms")
            slot.hedges.append(
                (t, int(event["node"]), float(q) if q is not None else None)
            )
        elif kind == "failover":
            slot.failovers.append(t)
    return slots


def _attempt_segments(
    slot: _SlotLog,
    node: int,
    submit: float,
    resolve: float,
    attrs: Optional[Dict[str, object]],
    cause: Optional[str],
) -> List[Segment]:
    """Decompose one attempt interval ``[submit, resolve]``.

    With the recorded ``call_ok`` decomposition the interval splits into
    network + queue + base service + slowdown penalty (emitted in that
    canonical order; the two network hops actually bracket the on-node
    time).  A failed attempt, or an ok without attrs (older logs), is one
    opaque segment.
    """
    span = resolve - submit
    if attrs is not None and attrs.get("queue_ms") is not None:
        queue = float(attrs["queue_ms"])
        service = float(attrs.get("service_ms", 0.0))
        slow = float(attrs.get("slow") or 1.0)
        network = span - queue - service
        base = service / slow if slow > 0 else service
        out: List[Segment] = []
        if network != 0.0:
            out.append(Segment("network", network, node=node, shard=slot.shard))
        if queue != 0.0:
            out.append(Segment("queue", queue, node=node, shard=slot.shard))
        if base != 0.0:
            out.append(Segment("service", base, node=node, shard=slot.shard))
        if service - base != 0.0:
            out.append(
                Segment(
                    "penalty", service - base, node=node, shard=slot.shard,
                    cause="node_slow",
                )
            )
        return out
    if attrs is not None:
        return [Segment("service", span, node=node, shard=slot.shard)]
    return [
        Segment("recovery", span, node=node, shard=slot.shard, cause=cause)
    ]


def _explain_submission(
    slot: _SlotLog, t_submit: float, arrival: float
) -> List[Segment]:
    """Why was an attempt submitted at ``t_submit``?  Chronological
    segments covering ``[arrival, t_submit]``."""
    if t_submit <= arrival:
        return []
    if t_submit in slot.failovers:
        # The failover fired the instant its predecessor died; charge the
        # dead attempt's whole lifetime to recovery and keep walking.
        for t_fail, node_f, cause in slot.fails:
            if t_fail == t_submit:
                sub = slot.submit_of(node_f)
                if sub is None:
                    break
                return _explain_submission(slot, sub, arrival) + [
                    Segment(
                        "recovery", t_submit - sub, node=node_f,
                        shard=slot.shard, cause=cause,
                    )
                ]
    if any(t == t_submit for t, _, _ in slot.hedges):
        # The hedge timer armed when the previous attempt went out; the
        # wait between arming and firing is the hedge delay sat out.
        arming = max(
            (t for t, _, _ in slot.calls if t < t_submit), default=None
        )
        if arming is not None:
            return _explain_submission(slot, arming, arrival) + [
                Segment("hedge_wait", t_submit - arming, shard=slot.shard)
            ]
    return [Segment("other", t_submit - arrival, shard=slot.shard)]


def _extract_cluster(record: Dict[str, object]) -> CriticalPath:
    """Backward blocking-chain walk from the slowest gather slot."""
    arrival = float(record["arrival_ms"])
    path = CriticalPath(
        req=int(record["req"]),
        id=str(record["id"]),
        outcome=str(record["outcome"]),
        arrival_ms=arrival,
        end_ms=float(record["end_ms"]),
    )
    if record["outcome"] == "shed":
        return _seal(path)  # dropped at arrival: zero-length path
    slots = _index_slots(record)
    if not slots:
        return _seal(path)
    # The request finished when its last slot resolved: the critical slot
    # is the max resolver (smallest shard breaks exact-float ties).
    critical = min(
        slots.values(), key=lambda s: (-s.resolve(arrival), s.shard)
    )
    resolve = critical.resolve(arrival)
    if critical.oks:
        t_ok, node, attrs = critical.oks[0]
        cause: Optional[str] = None
    elif critical.fails:
        t_ok, node, cause = critical.fails[-1]
        attrs = None
    else:  # no routable replica existed at arrival
        return _seal(path)
    submit = critical.submit_of(node)
    if submit is None:  # defensive: a log missing its shard_call line
        path.segments.append(
            Segment("other", resolve - arrival, shard=critical.shard)
        )
        return _seal(path)
    path.segments.extend(_explain_submission(critical, submit, arrival))
    path.segments.extend(
        _attempt_segments(critical, node, submit, resolve, attrs, cause)
    )
    return _seal(path)


def extract_critical_path(record: Dict[str, object]) -> CriticalPath:
    """The blocking chain of one request-log record (either layer).

    Cluster records are recognized by their ``shards`` field; everything
    else walks the single-box lifecycle.  The returned path satisfies the
    conservation invariant exactly (see :func:`check_conservation`).
    """
    if record.get("shards") is not None:
        return _extract_cluster(record)
    return extract_lifecycles(Lifecycles.from_records([record]))[0]


def extract_paths(records: Sequence[Dict[str, object]]) -> Sequence[CriticalPath]:
    """Extract every record's critical path, in record order.

    A run's lazy records (:attr:`repro.obs.requests.RunLog.records`) hand
    over their columns: a fast-path run's go to the closed form
    :func:`extract_fast`, a resilient run's to :func:`extract_lifecycles`.
    Single-box record dicts are parsed into one :class:`Lifecycles` table
    first.  Either way the result is a :class:`PathTable`.  Cluster
    records go through the cluster extractor one by one, and a list that
    holds any returns a plain list of paths.  ``records`` is read once,
    so a lazy cluster run builds each record dict once.
    """
    lifecycles = getattr(records, "lifecycles", None)
    columns = lifecycles() if lifecycles is not None else None
    if isinstance(columns, FastLifecycles):
        return extract_fast(columns)
    if columns is not None:
        return extract_lifecycles(columns)
    single: List[Dict[str, object]] = []
    out: List[Optional[CriticalPath]] = []  # None: a single-box record
    for rec in records:
        if rec.get("shards") is not None:
            out.append(_extract_cluster(rec))
        else:
            single.append(rec)
            out.append(None)
    table = extract_lifecycles(Lifecycles.from_records(single))
    if len(single) == len(out):
        return table
    paths = iter(table)
    return [path if path is not None else next(paths) for path in out]


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
    paths: Sequence[CriticalPath],
    scenario: str = "",
    tail_quantile: float = 99.0,
) -> List[Dict[str, object]]:
    """Fleet-wide "where does the time go" profiles over extracted paths.

    Returns schema-valid ``critpath_profile`` records (one per scope):
    ``overall``, the latency tail at ``tail_quantile`` (requests at or
    above that percentile of end-to-end time), and one per node and per
    shard that appears on any critical path.  Each record carries the
    summed per-kind segment milliseconds and the resulting bottleneck.
    A :class:`PathTable` is read column-wise; other paths are tabulated
    first.  Every sum adds in path and segment order.
    """
    table = paths if isinstance(paths, PathTable) else PathTable.from_paths(paths)
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


def profile_records(
    records: Sequence[Dict[str, object]],
    scenario: str = "",
    tail_quantile: float = 99.0,
) -> List[Dict[str, object]]:
    """Extract + aggregate in one call (the emitters' entry point)."""
    return aggregate_profiles(
        extract_paths(records), scenario=scenario, tail_quantile=tail_quantile
    )
