"""Request-scoped tracing: the lifecycle of every serving request.

The serving metrics (``serving.latency_ms`` and friends) answer *how bad*
the tail is; this module answers *why*.  When a :class:`RequestLog` is
attached to the active observation, :func:`repro.serving.server.
simulate_server` records, per logical request, the full lifecycle —
arrival, queue wait, retries with their backoff, the core it ran on, the
degradation scheme in effect at dispatch, every fault window overlapping
its lifetime, and its terminal outcome with a cause — and links each
request to a Chrome-trace span through a stable *exemplar id* so a
histogram bucket can be traced back to the concrete offending requests.

A single-box run is stored as columns: the loop's per-request arrays,
each request's dispatch conditions and a flat event table
(:class:`RunLog`).  Its :attr:`RunLog.records` build each record dict
only when read, and the critical-path extractor reads the columns
directly, so a log nobody exports costs little beyond the arrays.  A
cluster run is stored the same way: after its loop its events go in as
columns (:meth:`RunLog.extend_events`) and its per-request values as
one call (:meth:`RunLog.finish_cluster`), and its record dicts are
built on read too.

Everything recorded is **simulated time only** — no wall clocks — so the
export is byte-identical for a given seed and fault plan regardless of
host, run count, or ``--jobs`` parallelism (request-logged CLI runs
serialize in-process like all observed runs).  With no log attached the
serving loop takes a single ``is None`` branch per event: results and
throughput are untouched, matching the zero-cost contract of
:mod:`repro.obs.hooks`.

Offline consumers: ``tools/trace_report.py --requests`` prints slowest-N
request timelines and the SLA-miss attribution table;
``tools/obs_dashboard.py`` renders the attribution into the HTML report.
"""

from __future__ import annotations

import json
import operator
from collections import Counter
from dataclasses import dataclass, field
from typing import (
    Collection, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from .critpath import (
    LIFECYCLE_CODES, SEGMENT_KINDS, FastLifecycles, Lifecycles, bottleneck,
    extract_critical_path, extract_paths,
)
from .ids import request_id

__all__ = [
    "MISS_CAUSES",
    "RequestLog",
    "RunLog",
    "RunRecords",
    "attribute_miss",
    "load_request_log",
    "miss_attribution",
]

#: Version stamp written into every exported line; bump when the record
#: shape changes (validated against ``$defs.request_event`` in
#: ``tools/trace_schema.json``).
SCHEMA_VERSION = 1

#: Outcome codes of the single-box loops, mirrored from
#: :mod:`repro.serving.server` (which imports this package).
OUTCOME_NAMES = ("completed", "shed", "timed_out")
OUTCOME_COMPLETED = 0

#: The cause a request's terminal event names, by lifecycle code.
_CAUSE_OF_CODE = {
    LIFECYCLE_CODES["shed"]: "queue_full",
    LIFECYCLE_CODES["expired"]: "deadline_expired",
    LIFECYCLE_CODES["timeout"]: "queue_timeout",
}

#: Causes of the misses that never completed, named by how they ended:
#: admission control (shed, expired, queue timeout) on a single box, and
#: for a failed or degraded cluster request the fault that took out its
#: shard calls (a network partition, else a node crash).
TERMINAL_CAUSES = (
    "shed_queue_full", "expired_on_arrival", "queue_timeout",
    "partition", "node_fault",
)

#: Every SLA-miss cause (see :func:`attribute_miss`): the terminal ones,
#: then a late completion's dominant critical-path segment kind.
MISS_CAUSES = TERMINAL_CAUSES + SEGMENT_KINDS


@dataclass
class _Columns:
    """The per-request arrays of one single-box run (see :class:`RunLog`).

    ``outcome`` is ``None`` on the fast path, where every request
    completes; ``end`` is filled on first use on the resilient path.
    """

    arrival: np.ndarray
    start: np.ndarray
    service: np.ndarray
    core: np.ndarray
    end: Optional[np.ndarray] = None
    outcome: Optional[np.ndarray] = None
    retries: Optional[np.ndarray] = None
    injected: Optional[np.ndarray] = None
    windows: List[Tuple[str, float, float, Dict[str, object]]] = field(
        default_factory=list
    )


@dataclass
class _ClusterColumns:
    """The per-request values of one cluster run (see
    :meth:`RunLog.finish_cluster`)."""

    arrival: np.ndarray
    end: np.ndarray
    outcome: np.ndarray
    outcome_names: Tuple[str, ...]
    cause: Sequence[Optional[str]]
    fault_windows: Sequence[Sequence[str]]
    shards: np.ndarray
    nodes: Sequence[Collection[int]]
    failovers: Sequence[int]
    hedges: Sequence[int]
    hedges_wasted: Sequence[int]


class RunRecords(Sequence[Dict[str, object]]):
    """The read-only, lazy record sequence of one run (:attr:`RunLog.records`).

    ``len``, indexing, slicing and iteration work as on a list.  Element
    ``i`` is the record dict of request ``i``, built each time it is read,
    so a run nobody reads builds no dicts.
    :func:`repro.obs.critpath.extract_paths` takes the run's columns
    through :meth:`lifecycles` instead.
    """

    __slots__ = ("_run",)

    def __init__(self, run: "RunLog") -> None:
        self._run = run

    def __len__(self) -> int:
        return self._run._kept

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return [self._run._record_at(i) for i in range(*index.indices(len(self)))]
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("record index out of range")
        return self._run._record_at(i)

    def __iter__(self) -> Iterator[Dict[str, object]]:
        for i in range(len(self)):
            yield self._run._record_at(i)

    def lifecycles(self) -> Union[Lifecycles, FastLifecycles, None]:
        """The run's lifecycle columns: a :class:`FastLifecycles` for a
        fast-path run, a :class:`Lifecycles` for a resilient one, None
        for a cluster run (its records are parsed into a
        :class:`~repro.obs.critpath.CallTable`)."""
        return self._run._lifecycles()


class RunLog:
    """Per-request lifecycle records of **one** serving simulation.

    Created by :meth:`RequestLog.start_run`.  The serving loop feeds it
    incremental :meth:`event` calls (or whole columns through
    :meth:`extend_events`), appended to one flat ``(req, kind, t_ms,
    attrs)`` event table, and one :meth:`finish` / :meth:`finish_fast` /
    :meth:`finish_cluster` call that keeps the loop's per-request values
    as columns.  The resilient loop also hands over what each request
    was dispatched under (:meth:`dispatch_conditions`).  :attr:`records`
    builds a request's record dict from those columns only when it is
    read.  All timestamps are simulated milliseconds.
    """

    def __init__(
        self,
        log: "RequestLog",
        index: int,
        label: str,
        deadline_ms: Optional[float],
    ) -> None:
        self.log = log
        self.index = index
        self.label = label
        self.deadline_ms = deadline_ms
        self.records = RunRecords(self)
        # The event table, as parallel columns (no per-row tuple: the
        # garbage collector never scans rows).
        self._ev_req: List[int] = []
        self._ev_kind: List[str] = []
        self._ev_t: List[float] = []
        self._ev_attrs: List[Dict[str, object]] = []
        self._kept = 0
        self._cols: Union[_Columns, _ClusterColumns, None] = None
        self._grouping: Optional[Tuple[np.ndarray, ...]] = None
        self._dispatch: Optional[tuple] = None  # see dispatch_conditions()

    def exemplar_id(self, req: int) -> str:
        """The stable id linking request ``req`` across log, spans, and
        histogram exemplars (see :mod:`repro.obs.ids`)."""
        return request_id(self.index, req)

    def event(self, req: int, kind: str, t_ms: float, **attrs: object) -> None:
        """Record one lifecycle event of request ``req``.

        A request's first ``arrive`` is not recorded: every request's
        events open with one at its arrival, which the arrival column
        holds.  Retries record ``retry_arrive``.
        """
        self._ev_req.append(req)
        self._ev_kind.append(kind)
        self._ev_t.append(t_ms)
        self._ev_attrs.append(attrs)

    def extend_events(
        self,
        reqs: Sequence[int],
        kinds: Sequence[str],
        times: Sequence[float],
        attrs: Sequence[Dict[str, object]],
    ) -> None:
        """Record many lifecycle events at once, as parallel columns: row
        ``j`` is one :meth:`event` call (the ``attrs`` dicts are kept, not
        copied; first arrivals are implicit there too).  The table is read
        grouped by request, so only the order of each request's own events
        matters; rows of different requests may interleave in any order."""
        self._ev_req.extend(reqs)
        self._ev_kind.extend(kinds)
        self._ev_t.extend(times)
        self._ev_attrs.extend(attrs)

    def dispatch_conditions(
        self,
        fault_mults: Sequence[float],
        straggler_mults: np.ndarray,
        ctl_of: Sequence[int],
        ctl_states: Sequence[Tuple[Optional[int], Optional[str], float]],
    ) -> None:
        """Record what each request was dispatched under, as per-request
        columns (a request is dispatched at most once; the values of one
        never dispatched are not read): its fault and straggler service
        multipliers, and ``ctl_states[ctl_of[i]]``, the degradation
        ``(level, scheme, scale)`` in force (level and scheme None
        without a controller).

        The resilient loop records this instead of ``dispatch`` and
        ``complete`` events: their times and core are ``starts``,
        ``starts + services`` and ``core_of`` in :meth:`finish`.
        """
        self._dispatch = (fault_mults, straggler_mults, ctl_of, ctl_states)

    # -- finalization --------------------------------------------------------

    def finish_fast(self, arrivals, starts, services, core_ids, tracer=None) -> None:
        """Keep the columns of a fast-path run (every request completes)."""
        self._cols = _Columns(
            arrival=arrivals, start=starts, service=services, core=core_ids,
            end=starts + services,
        )
        self._seal(int(arrivals.size), tracer)

    def finish(
        self,
        *,
        arrivals,
        injected,
        outcomes,
        retry_counts,
        starts,
        services,
        core_of,
        plan=None,
        tracer=None,
    ) -> None:
        """Keep the columns of a resilient-path run.

        ``outcomes`` uses the codes of :mod:`repro.serving.server`
        (0 completed / 1 shed / 2 timed out); causes and retry timelines
        come from the :meth:`event` table, dispatch conditions from
        :meth:`dispatch_conditions`.
        """
        self._cols = _Columns(
            arrival=arrivals, start=starts, service=services, core=core_of,
            outcome=outcomes, retries=retry_counts, injected=injected,
            windows=plan.windows() if plan is not None and not plan.is_empty else [],
        )
        self._seal(int(arrivals.size), tracer)

    def finish_cluster(
        self,
        *,
        arrivals,
        ends,
        outcomes,
        outcome_names: Tuple[str, ...],
        causes: Sequence[Optional[str]],
        fault_windows: Sequence[Sequence[str]],
        shards,
        nodes: Sequence[Collection[int]],
        failovers: Sequence[int],
        hedges: Sequence[int],
        hedges_wasted: Sequence[int],
        tracer=None,
    ) -> None:
        """Keep the columns of a cluster run (:mod:`repro.serving.cluster`).

        One value per request: its arrival and end, its outcome code into
        ``outcome_names`` (code 0 is ``"completed"``, as on the single
        box), its cause, the names of the fault windows it overlapped,
        its row of the ``(requests, gather width)`` array ``shards``, the
        nodes its calls went to, and its failover, hedge and wasted-hedge
        counts.  Call it once, after the run's last event.
        """
        self._cols = _ClusterColumns(
            arrival=np.asarray(arrivals, dtype=np.float64),
            end=np.asarray(ends, dtype=np.float64),
            outcome=np.asarray(outcomes, dtype=np.int64),
            outcome_names=outcome_names, cause=causes,
            fault_windows=fault_windows, shards=np.asarray(shards), nodes=nodes,
            failovers=failovers, hedges=hedges, hedges_wasted=hedges_wasted,
        )
        self._seal(len(self._cols.arrival), tracer)

    def _grouped(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The event-table rows of kept requests grouped by request, in
        recording order within each: ``(rows, ptr, kind codes, times)``;
        request ``i`` owns ``rows[ptr[i]:ptr[i + 1]]``.  These are the
        events after each request's implicit first ``arrive``."""
        if self._grouping is None:
            req = np.array(self._ev_req, dtype=np.int64)
            rows = np.argsort(req, kind="stable")
            counts = np.bincount(req, minlength=self._kept)[: self._kept]
            ptr = np.concatenate(([0], np.cumsum(counts)))
            rows = rows[: ptr[-1]]
            code = np.array(
                [LIFECYCLE_CODES.get(kind, -1) for kind in self._ev_kind],
                dtype=np.int64,
            )[rows]
            t = np.array(self._ev_t, dtype=np.float64)[rows]
            self._grouping = (rows, ptr, code, t)
        return self._grouping

    def _end(self) -> np.ndarray:
        """End time per kept request: completion, else its last event."""
        cols = self._cols
        if cols.end is None:
            k = self._kept
            end = cols.start[:k] + cols.service[:k]
            _, ptr, _, t = self._grouped()
            unfinished = cols.outcome[:k] != OUTCOME_COMPLETED
            end[unfinished] = cols.arrival[:k][unfinished]
            last = unfinished & (np.diff(ptr) > 0)
            end[last] = t[ptr[1:][last] - 1]
            cols.end = end
        return cols.end[: self._kept]

    def _lifecycles(self) -> Union[Lifecycles, FastLifecycles, None]:
        cols = self._cols
        if not isinstance(cols, _Columns):
            return None
        k = self._kept
        if cols.outcome is None:
            return FastLifecycles(
                req=np.arange(k), ids=self.exemplar_id,
                outcome=np.zeros(k, dtype=np.int64), outcome_names=OUTCOME_NAMES,
                arrival=cols.arrival[:k], start=cols.start[:k], end=self._end(),
                node=cols.core[:k],
            )
        code_of = LIFECYCLE_CODES
        outcome = cols.outcome[:k]
        node = np.where(outcome == OUTCOME_COMPLETED, cols.core[:k], -1)
        _, t_ptr, t_code, t_time = self._grouped()
        # Every request opens with its arrive before its table events, and
        # every completed one ends with dispatch, complete after them.
        done = np.flatnonzero(outcome == OUTCOME_COMPLETED)
        fault, straggler, ctl_of, states = self._dispatch
        scales = np.array([state[2] for state in states], dtype=np.float64)
        # fault x straggler x scale, the order a parsed dispatch event
        # multiplies them in.
        mult = (
            np.array(fault, dtype=np.float64)[done] * straggler[done]
            * scales[np.array(ctl_of, dtype=np.int64)[done]]
        )
        t_counts = np.diff(t_ptr)
        counts = t_counts + 1
        counts[done] += 2
        ptr = np.concatenate(([0], np.cumsum(counts)))
        kind = np.empty(ptr[-1], dtype=np.int64)
        t = np.empty(ptr[-1], dtype=np.float64)
        ev_mult = np.ones(ptr[-1])
        kind[ptr[:-1]] = code_of["arrive"]
        t[ptr[:-1]] = cols.arrival[:k]
        table = np.repeat(ptr[:-1] + 1 - t_ptr[:-1], t_counts) + np.arange(t_ptr[-1])
        kind[table] = t_code
        t[table] = t_time
        at = ptr[done + 1] - 2
        kind[at] = code_of["dispatch"]
        t[at] = cols.start[done]
        ev_mult[at] = mult
        kind[at + 1] = code_of["complete"]
        t[at + 1] = cols.start[done] + cols.service[done]
        return Lifecycles(
            req=np.arange(k), ids=self.exemplar_id,
            outcome=outcome, outcome_names=OUTCOME_NAMES,
            arrival=cols.arrival[:k], end=self._end(), node=node,
            ev_ptr=ptr, ev_kind=kind, ev_t=t, ev_mult=ev_mult,
        )

    # -- records ---------------------------------------------------------------

    def _record_at(self, i: int) -> Dict[str, object]:
        """Build request ``i``'s record dict from the columns."""
        if isinstance(self._cols, _ClusterColumns):
            return self._cluster_record(i)
        cols = self._cols
        arrival = float(cols.arrival[i])
        if cols.outcome is None:
            start = float(cols.start[i])
            service = float(cols.service[i])
            core = int(cols.core[i])
            return self._record(
                req=i,
                injected=False,
                arrival_ms=arrival,
                outcome="completed",
                cause=None,
                retries=0,
                backoff_ms=0.0,
                wait_ms=start - arrival,
                service_ms=service,
                end_ms=start + service,
                core=core,
                level=None,
                scheme=None,
                fault_windows=[],
                events=[
                    {"kind": "arrive", "t_ms": arrival},
                    {"kind": "dispatch", "t_ms": start, "core": core},
                    {"kind": "complete", "t_ms": start + service},
                ],
            )
        events = self._events_of(i)
        outcome = OUTCOME_NAMES[int(cols.outcome[i])]
        backoff = sum(
            float(e.get("backoff_ms", 0.0))
            for e in events
            if e["kind"] == "timeout_retry"
        )
        cause = None
        level = scheme = None
        if outcome == "completed":
            start = float(cols.start[i])
            service: Optional[float] = float(cols.service[i])
            wait: Optional[float] = start - arrival
            end = start + service
            core: Optional[int] = int(cols.core[i])
            fault, straggler, ctl_of, states = self._dispatch
            level, scheme, scale = states[ctl_of[i]]
            events.append({
                "kind": "dispatch", "t_ms": start, "core": core,
                "level": level, "scheme": scheme, "fault_mult": float(fault[i]),
                "straggler_mult": float(straggler[i]), "scale": float(scale),
            })
            events.append({"kind": "complete", "t_ms": end, "core": core})
        else:
            wait, service, core = None, None, None
            end = float(events[-1]["t_ms"])
            cause = self._cause(i)
        return self._record(
            req=i,
            injected=bool(cols.injected[i]) if cols.injected is not None else False,
            arrival_ms=arrival,
            outcome=outcome,
            cause=cause,
            retries=int(cols.retries[i]),
            backoff_ms=backoff,
            wait_ms=wait,
            service_ms=service,
            end_ms=end,
            core=core,
            level=level,
            scheme=scheme,
            fault_windows=self._overlapping(cols.windows, arrival, end, core),
            events=events,
        )

    def _events_of(self, i: int) -> List[Dict[str, object]]:
        """Request ``i``'s ``events`` entries: its arrive, then its rows of
        the event table."""
        rows, ptr, _, _ = self._grouped()
        kinds, times, attrs = self._ev_kind, self._ev_t, self._ev_attrs
        events: List[Dict[str, object]] = [
            {"kind": "arrive", "t_ms": float(self._cols.arrival[i])}
        ]
        events.extend(
            {"kind": kinds[row], "t_ms": float(times[row]), **attrs[row]}
            for row in rows[ptr[i] : ptr[i + 1]].tolist()
        )
        return events

    def _cause(self, i: int) -> Optional[str]:
        """The cause single-box request ``i``'s last terminal event names
        (None without one), read from the grouped kind codes."""
        _, ptr, code, _ = self._grouped()
        cause = None
        for c in code[ptr[i] : ptr[i + 1]].tolist():
            cause = _CAUSE_OF_CODE.get(c, cause)
        return cause

    def _cluster_record(self, i: int) -> Dict[str, object]:
        """Build cluster request ``i``'s record dict from the columns."""
        cols = self._cols
        arrival = float(cols.arrival[i])
        end = float(cols.end[i])
        outcome = cols.outcome_names[int(cols.outcome[i])]
        record = self._record(
            req=i,
            injected=False,
            arrival_ms=arrival,
            outcome=outcome,
            cause=cols.cause[i],
            retries=0,
            backoff_ms=0.0,
            wait_ms=None,
            service_ms=None,
            end_ms=end,
            core=None,
            level=None,
            scheme=None,
            fault_windows=list(cols.fault_windows[i]),
            events=self._events_of(i),
        )
        if outcome == "degraded":
            # A partial result still has an end-to-end latency.
            record["latency_ms"] = end - arrival
        record["shards"] = cols.shards[i].tolist()
        record["nodes"] = sorted(cols.nodes[i])
        record["failovers"] = int(cols.failovers[i])
        record["hedges"] = int(cols.hedges[i])
        record["hedges_wasted"] = int(cols.hedges_wasted[i])
        return record

    @staticmethod
    def _overlapping(
        windows: List[Tuple[str, float, float, Dict[str, object]]],
        start_ms: float,
        end_ms: float,
        core: Optional[int],
    ) -> List[str]:
        """Names of fault windows overlapping ``[start_ms, end_ms]``.

        Core-scoped faults (slowdowns, failures) only count when they hit
        the request's assigned core; fleet-wide windows always count.
        """
        out = []
        for name, w_start, w_end, attrs in windows:
            fault_core = attrs.get("core")
            if fault_core is not None and core is not None and fault_core != core:
                continue
            if w_start <= end_ms and start_ms <= w_end:
                out.append(name)
        return out

    def _record(
        self,
        *,
        req: int,
        injected: bool,
        arrival_ms: float,
        outcome: str,
        cause: Optional[str],
        retries: int,
        backoff_ms: float,
        wait_ms: Optional[float],
        service_ms: Optional[float],
        end_ms: float,
        core: Optional[int],
        level: Optional[int],
        scheme: Optional[str],
        fault_windows: List[str],
        events: List[Dict[str, object]],
    ) -> Dict[str, object]:
        deadline_met: Optional[bool] = None
        if self.deadline_ms is not None:
            deadline_met = (
                outcome == "completed"
                and end_ms <= arrival_ms + self.deadline_ms
            )
        return {
            "kind": "request",
            "schema_version": SCHEMA_VERSION,
            "run": self.index,
            "label": self.label,
            "req": req,
            "id": self.exemplar_id(req),
            "injected": injected,
            "arrival_ms": arrival_ms,
            "deadline_ms": self.deadline_ms,
            "outcome": outcome,
            "cause": cause,
            "retries": retries,
            "backoff_ms": backoff_ms,
            "wait_ms": wait_ms,
            "service_ms": service_ms,
            "latency_ms": (end_ms - arrival_ms) if outcome == "completed" else None,
            "end_ms": end_ms,
            "core": core,
            "degradation_level": level,
            "scheme": scheme,
            "fault_windows": fault_windows,
            "deadline_met": deadline_met,
            "events": events,
        }

    def completed_reqs(self) -> np.ndarray:
        """Request indices of the kept completed requests, in arrival
        order (aligned with the result's ``latencies_ms``)."""
        if self._cols is None:
            return np.empty(0, dtype=np.int64)
        if self._cols.outcome is None:
            return np.arange(self._kept)
        return np.flatnonzero(self._cols.outcome[: self._kept] == OUTCOME_COMPLETED)

    def _seal(self, count: int, tracer) -> None:
        """Apply the log-wide bound and emit one linked span per request,
        as one columnar batch."""
        kept = self.log._admit(count)
        self._kept = kept
        if tracer is None or kept == 0:
            return
        tid = tracer.new_sim_track(f"serving.requests:{self.label} (ms)")
        arrival, end = self._cols.arrival[:kept], self._end()
        tracer.add_sim_batch(
            "serving.request", arrival, end - arrival, self._span, tid=tid
        )

    def _span(self, i: int) -> Tuple[str, Dict[str, object]]:
        """Name and args of request ``i``'s trace span."""
        cols = self._cols
        if isinstance(cols, _ClusterColumns):
            return f"req[{i}]", {
                "id": self.exemplar_id(i),
                "outcome": cols.outcome_names[int(cols.outcome[i])],
                "cause": cols.cause[i],
                "core": None,
                "retries": 0,
            }
        code = OUTCOME_COMPLETED if cols.outcome is None else int(cols.outcome[i])
        done = code == OUTCOME_COMPLETED
        return f"req[{i}]", {
            "id": self.exemplar_id(i),
            "outcome": OUTCOME_NAMES[code],
            "cause": None if done else self._cause(i),
            "core": int(cols.core[i]) if done else None,
            "retries": int(cols.retries[i]) if cols.retries is not None else 0,
        }


class RequestLog:
    """All request records of one observed session, bounded like the tracer.

    Attach one to an :class:`repro.obs.hooks.Observation` (the runner's
    ``--request-log`` flag does this) and every serving simulation in the
    session appends one :class:`RunLog`.  Once ``max_requests`` records
    are held, further requests are counted in :attr:`dropped` but not
    kept, so a truncated log is never mistaken for a complete one.
    """

    def __init__(self, max_requests: int = 1_000_000) -> None:
        self.runs: List[RunLog] = []
        self.max_requests = max_requests
        self.dropped = 0
        self._kept = 0

    def start_run(
        self,
        label: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> RunLog:
        """Open the log of one serving simulation."""
        run = RunLog(
            log=self,
            index=len(self.runs),
            label=label if label else f"run{len(self.runs)}",
            deadline_ms=deadline_ms,
        )
        self.runs.append(run)
        return run

    def _admit(self, count: int) -> int:
        """Budget ``count`` new records; returns how many may be kept."""
        kept = max(0, min(count, self.max_requests - self._kept))
        self._kept += kept
        self.dropped += count - kept
        return kept

    @property
    def num_requests(self) -> int:
        """Total request records held (drops excluded)."""
        return self._kept

    def records(self) -> List[Dict[str, object]]:
        """Every request record across runs, in run/arrival order."""
        out: List[Dict[str, object]] = []
        for run in self.runs:
            out.extend(run.records)
        return out

    def meta(self) -> Dict[str, object]:
        """The header record summarizing the whole log."""
        return {
            "kind": "request_log_meta",
            "schema_version": SCHEMA_VERSION,
            "runs": len(self.runs),
            "requests": self.num_requests,
            "dropped": self.dropped,
        }

    def to_jsonl(self, path) -> int:
        """Write the meta header plus one line per request; returns the
        request count.  Deterministic: simulated time only, fixed key
        order."""
        with open(path, "w") as fh:
            fh.write(json.dumps(self.meta()) + "\n")
            for run in self.runs:
                for record in run.records:
                    fh.write(json.dumps(record) + "\n")
        return self.num_requests


def load_request_log(path) -> Tuple[Dict[str, object], List[Dict[str, object]]]:
    """Read a request-log JSONL export: ``(meta, request_records)``."""
    meta: Dict[str, object] = {}
    records: List[Dict[str, object]] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("kind") == "request_log_meta":
                meta = rec
            else:
                records.append(rec)
    return meta, records


def _terminal_cause(record: Dict[str, object]) -> Optional[str]:
    """The :data:`TERMINAL_CAUSES` entry of a request that did not
    complete, else None."""
    outcome = record.get("outcome")
    if outcome == "shed":
        return "shed_queue_full"
    if outcome == "timed_out":
        if record.get("cause") == "deadline_expired":
            return "expired_on_arrival"
        return "queue_timeout"
    if outcome in ("failed", "degraded"):
        return "partition" if record.get("cause") == "partition" else "node_fault"
    return None


def attribute_miss(record: Dict[str, object]) -> Optional[str]:
    """Cause of one request's SLA miss, or None if it didn't miss.

    A request "missed" when it did not complete (cluster runs count
    ``degraded`` partial results and ``failed`` requests here), or
    completed past its deadline.  The first kind takes its terminal cause;
    a late completion takes the :func:`~repro.obs.critpath.bottleneck` of
    its own critical path, so its cause is the segment kind that held it
    up longest.  Fault and tenant windows stay in the record's
    ``fault_windows``.
    """
    cause = _terminal_cause(record)
    if cause is None and record.get("deadline_met") is False:
        return bottleneck(extract_critical_path(record).by_kind())
    return cause


def miss_attribution(
    records: Sequence[Dict[str, object]],
) -> Dict[str, int]:
    """SLA-miss cause -> request count over a record list, in
    :data:`MISS_CAUSES` order; each late completion's path is extracted
    in one :func:`~repro.obs.critpath.extract_paths` call over the late
    ones only.

    Only causes that occurred appear; an empty dict means every request
    met its deadline (or no deadline was configured).
    """
    counts: Counter = Counter()
    late: List[Dict[str, object]] = []
    for record in records:
        cause = _terminal_cause(record)
        if cause is not None:
            counts[cause] += 1
        elif record.get("deadline_met") is False:
            late.append(record)
    counts.update(bottleneck(path.by_kind()) for path in extract_paths(late))
    return {cause: counts[cause] for cause in MISS_CAUSES if cause in counts}
