"""Nested spans on wall-clock and simulated-time tracks, Chrome-exportable.

The tracer is the repro's VTune timeline.  It records two kinds of spans:

* **wall spans** — real elapsed time of orchestration code (an experiment,
  a serving sweep), opened with the :meth:`Tracer.span` context manager and
  timed with ``time.perf_counter_ns``;
* **sim spans** — intervals measured in *simulated core cycles* (a batch,
  an inference stage, an SMT overlap region), recorded after the fact with
  :meth:`Tracer.add_sim_span` since simulated time is known exactly.  A
  run that emits one span per request hands them over as one columnar
  batch (:meth:`Tracer.add_sim_batch`); the batch becomes
  :class:`SpanEvent` objects, in place and in order, only when
  :attr:`Tracer.events` is read or the trace is exported.

Exports:

* :meth:`Tracer.to_chrome` writes Chrome's Trace Event JSON (load it at
  ``chrome://tracing`` or https://ui.perfetto.dev).  Wall spans live under
  pid 1 ("wall"), sim spans under pid 2 ("sim"); the sim track's "µs" are
  core cycles.  Each independent simulated timeline (one engine run, one
  serving simulation) gets its own tid via :meth:`new_sim_track`, since
  every run starts its core clock at zero.
* :meth:`Tracer.to_jsonl` writes the same events as a flat JSONL log for
  ad-hoc grepping / pandas loading.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["SimSpanBatch", "SpanEvent", "Tracer", "WALL_PID", "SIM_PID"]

#: Chrome-trace process ids for the two time domains.
WALL_PID = 1
SIM_PID = 2


@dataclass
class SpanEvent:
    """One completed span ("X" phase in the Chrome trace event format)."""

    name: str
    category: str
    ts: float  # µs on the wall track, core cycles on the sim track
    dur: float
    pid: int = WALL_PID
    tid: int = 0
    args: Dict[str, object] = field(default_factory=dict)

    def to_chrome(self) -> Dict[str, object]:
        """Chrome Trace Event Format dict (complete event)."""
        event: Dict[str, object] = {
            "name": self.name,
            "cat": self.category,
            "ph": "X",
            "ts": self.ts,
            "dur": self.dur,
            "pid": self.pid,
            "tid": self.tid,
        }
        if self.args:
            event["args"] = self.args
        return event


@dataclass
class SimSpanBatch:
    """Sim spans held as columns: span ``i`` starts at ``starts[i]``,
    lasts ``durs[i]``, and ``describe(i)`` gives its ``(name, args)``.
    ``category`` and ``tid`` are one value for every span, or a sequence
    with one per span."""

    category: Union[str, Sequence[str]]
    tid: Union[int, Sequence[int]]
    starts: np.ndarray
    durs: np.ndarray
    describe: Callable[[int], Tuple[str, Dict[str, object]]]

    def expand(self) -> List[SpanEvent]:
        """The spans as :class:`SpanEvent` objects, in column order."""
        categories = (
            repeat(self.category) if isinstance(self.category, str) else self.category
        )
        tids = repeat(self.tid) if isinstance(self.tid, int) else self.tid
        out = []
        for i, (ts, dur, category, tid) in enumerate(
            zip(self.starts.tolist(), self.durs.tolist(), categories, tids)
        ):
            name, args = self.describe(i)
            out.append(
                SpanEvent(name, category, ts, dur, SIM_PID, tid,
                          dict(args) if args else {})
            )
        return out


class Tracer:
    """Collects spans; bounded so a runaway run cannot exhaust memory.

    Once ``max_events`` spans are stored, further spans are counted in
    :attr:`dropped` but not kept — exports report the drop so a truncated
    trace is never mistaken for a complete one.
    """

    def __init__(self, max_events: int = 1_000_000) -> None:
        self._events: List[Union[SpanEvent, SimSpanBatch]] = []
        self._batched = False
        self._count = 0
        self.max_events = max_events
        self.dropped = 0
        self._wall_stack: List[str] = []
        self._next_sim_tid = 0
        self._epoch_ns = time.perf_counter_ns()

    @property
    def events(self) -> List[SpanEvent]:
        """Every stored span in recording order (batches expanded)."""
        if self._batched:
            expanded: List[SpanEvent] = []
            for item in self._events:
                if isinstance(item, SimSpanBatch):
                    expanded.extend(item.expand())
                else:
                    expanded.append(item)
            self._events = expanded
            self._batched = False
        return self._events  # type: ignore[return-value]

    # -- recording ----------------------------------------------------------

    def _now_us(self) -> float:
        return (time.perf_counter_ns() - self._epoch_ns) / 1000.0

    def _add(self, event: SpanEvent) -> None:
        if self._count >= self.max_events:
            self.dropped += 1
            return
        self._events.append(event)
        self._count += 1

    @contextmanager
    def span(self, name: str, category: str = "wall", **args: object) -> Iterator[None]:
        """Time a wall-clock span around a code block (nestable)."""
        start = self._now_us()
        self._wall_stack.append(name)
        depth = len(self._wall_stack)
        try:
            yield
        finally:
            self._wall_stack.pop()
            end = self._now_us()
            span_args = dict(args)
            span_args["depth"] = depth
            self._add(
                SpanEvent(
                    name=name,
                    category=category,
                    ts=start,
                    dur=end - start,
                    pid=WALL_PID,
                    tid=0,
                    args=span_args,
                )
            )

    def new_sim_track(self, label: str = "") -> int:
        """Allocate a tid for one independent simulated timeline."""
        self._next_sim_tid += 1
        if label:
            self._add(
                SpanEvent(
                    name=f"track:{label}",
                    category="sim.meta",
                    ts=0.0,
                    dur=0.0,
                    pid=SIM_PID,
                    tid=self._next_sim_tid,
                )
            )
        return self._next_sim_tid

    def add_sim_span(
        self,
        name: str,
        category: str,
        start_cycles: float,
        dur_cycles: float,
        tid: int = 0,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        """Record one simulated-time span (cycles are the track's 'µs')."""
        self._add(
            SpanEvent(
                name=name,
                category=category,
                ts=float(start_cycles),
                dur=float(dur_cycles),
                pid=SIM_PID,
                tid=tid,
                args=dict(args) if args else {},
            )
        )

    def add_sim_batch(
        self,
        category: Union[str, Sequence[str]],
        starts: np.ndarray,
        durs: np.ndarray,
        describe: Callable[[int], Tuple[str, Dict[str, object]]],
        tid: Union[int, Sequence[int]] = 0,
    ) -> None:
        """Record ``len(starts)`` sim spans as one columnar batch.

        Equivalent to ``add_sim_span(*describe(i), ...)`` for every span
        in order — the same spans are stored and the same number dropped
        at ``max_events`` — but nothing per span is built until the spans
        are read.  ``category`` and ``tid`` may give one value per span,
        so one batch can interleave several tracks.
        """
        n = int(starts.size)
        kept = max(0, min(n, self.max_events - self._count))
        self.dropped += n - kept
        if kept == 0:
            return
        self._events.append(
            SimSpanBatch(category, tid, starts[:kept], durs[:kept], describe)
        )
        self._count += kept
        self._batched = True

    def __len__(self) -> int:
        return self._count

    def find(self, name: str) -> List[SpanEvent]:
        """Every recorded span with the given name."""
        return [e for e in self.events if e.name == name]

    # -- export -------------------------------------------------------------

    def chrome_dict(self) -> Dict[str, object]:
        """The full Chrome Trace Event JSON object."""
        trace_events: List[Dict[str, object]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": WALL_PID,
                "tid": 0,
                "args": {"name": "wall (µs)"},
            },
            {
                "name": "process_name",
                "ph": "M",
                "pid": SIM_PID,
                "tid": 0,
                "args": {"name": "sim (core cycles)"},
            },
            # Drop accounting as an in-band metadata event: viewers that
            # never surface otherData still show whether the trace is
            # complete.
            {
                "name": "tracer_stats",
                "ph": "M",
                "pid": WALL_PID,
                "tid": 0,
                "args": {
                    "recorded_events": len(self.events),
                    "dropped_events": self.dropped,
                    "max_events": self.max_events,
                },
            },
        ]
        trace_events.extend(e.to_chrome() for e in self.events)
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {
                "producer": "repro.obs",
                "dropped_events": self.dropped,
            },
        }

    def to_chrome(self, path) -> int:
        """Write the Chrome trace JSON; returns the event count written.

        The document is encoded in one ``json.dumps`` call, which takes
        the C encoder (``json.dump`` streams through the pure-Python one).
        """
        payload = json.dumps(self.chrome_dict())
        with open(path, "w") as fh:
            fh.write(payload + "\n")
        return len(self.events)

    def to_jsonl(self, path) -> int:
        """Write spans as flat JSONL (one object per span, field order fixed).

        A leading metadata line carries the drop counter, mirroring the
        Chrome export's ``otherData`` — a truncated JSONL log declares
        itself truncated.
        """
        with open(path, "w") as fh:
            fh.write(
                json.dumps(
                    {
                        "kind": "trace_meta",
                        "recorded_events": len(self.events),
                        "dropped_events": self.dropped,
                        "max_events": self.max_events,
                    }
                )
                + "\n"
            )
            for event in self.events:
                fh.write(
                    json.dumps(
                        {
                            "name": event.name,
                            "cat": event.category,
                            "track": "sim" if event.pid == SIM_PID else "wall",
                            "tid": event.tid,
                            "ts": event.ts,
                            "dur": event.dur,
                            "args": event.args,
                        }
                    )
                    + "\n"
                )
        return len(self.events)
