"""Declarative SLOs: windowed compliance, error budgets, burn-rate alerts.

The request log (:mod:`repro.obs.requests`) records what happened to every
request; this module turns that stream into an *SLO verdict*.  An
:class:`SLOSpec` names an objective — "95% of requests served within the
SLA latency", "99.9% availability", "95% full-quality results" — and
:func:`evaluate_slo` grades it over rolling simulated-time windows:

* **Compliance** per window: good requests / total requests.
* **Error budget**: a spec with objective ``p`` grants a budget of
  ``(1 - p)`` bad fraction; the timeline tracks the cumulative fraction
  of that budget remaining (negative = blown).
* **Burn rate** per window: observed bad fraction divided by the allowed
  bad fraction — burn 1.0 spends the budget exactly at the sustainable
  rate, burn 10 spends it ten times too fast.
* **Multi-window burn alerts** (:class:`BurnRule`): an alert fires when
  both a short and a long trailing window burn above a threshold (the
  classic SRE page condition — fast enough to matter, sustained enough to
  be real) and resolves when the short window recovers.

The fleet half (:func:`node_window_stats`, :class:`FleetMonitor`) slices
the same log per node: every shard call of its
:class:`~repro.obs.critpath.CallTable` is bucketed into (window, node)
cells where it was sent and where it resolved, and a pair
of :class:`~repro.obs.detect.MeanShiftDetector` instances per node watch
the error rate and mean call latency.  :func:`score_detections` then
grades the fired alerts against the :class:`repro.serving.faults.
ClusterFaultPlan` ground truth — detection precision, per-fault-class
recall, and mean time-to-detect — which is what the ``slo_observatory``
experiment reports.

All timestamps are simulated milliseconds; evaluation is pure python over
the record list, so a given log grades identically on every host.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError
from .critpath import CallTable
from .detect import DetectionEvent, MeanShiftDetector

__all__ = [
    "BurnAlert",
    "BurnRule",
    "DEFAULT_BURN_RULES",
    "FleetMonitor",
    "SLOSpec",
    "SLO_KINDS",
    "SloTimeline",
    "WindowPoint",
    "alert_record",
    "burn_alerts",
    "burn_summary",
    "evaluate_slo",
    "node_window_stats",
    "score_detections",
    "slo_state_records",
]

#: Version stamp for exported ``slo_state`` / ``alert`` lines (validated
#: against ``$defs.slo_state`` / ``$defs.alert_event`` in
#: ``tools/trace_schema.json``).
SCHEMA_VERSION = 1

#: SLO kinds understood by :meth:`SLOSpec.is_good`.
SLO_KINDS = ("latency", "availability", "quality")


@dataclass(frozen=True)
class SLOSpec:
    """One service-level objective over the request stream.

    ``objective`` is the target good fraction (0.95 = "95% of requests
    are good").  What "good" means depends on ``kind``:

    * ``latency`` — served (fully or degraded) within ``threshold_ms``
      of arrival.
    * ``availability`` — served at all (completed or degraded; shed and
      failed requests are the outage).
    * ``quality`` — completed at *full* quality, and within
      ``threshold_ms`` when one is given (the paper-grade SLA reading:
      degraded recall does not count).
    """

    name: str
    kind: str
    objective: float
    threshold_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in SLO_KINDS:
            raise ConfigError(
                f"unknown SLO kind {self.kind!r}; known: {SLO_KINDS}"
            )
        if not 0.0 < self.objective < 1.0:
            raise ConfigError("SLO objective must be in (0, 1)")
        if self.kind == "latency" and self.threshold_ms is None:
            raise ConfigError("latency SLOs need a threshold_ms")
        if self.threshold_ms is not None and self.threshold_ms <= 0:
            raise ConfigError("SLO latency threshold must be positive")

    @property
    def budget_fraction(self) -> float:
        """Allowed bad fraction (the error budget as a rate)."""
        return 1.0 - self.objective

    def is_good(self, record: Dict[str, object]) -> bool:
        """Whether one request record counts toward the objective."""
        outcome = record.get("outcome")
        latency = record.get("latency_ms")
        if self.kind == "availability":
            return outcome in ("completed", "degraded")
        if self.kind == "latency":
            return (
                outcome in ("completed", "degraded")
                and latency is not None
                and float(latency) <= float(self.threshold_ms)
            )
        # quality
        if outcome != "completed":
            return False
        if self.threshold_ms is None:
            return True
        return latency is not None and float(latency) <= float(self.threshold_ms)


@dataclass(frozen=True)
class WindowPoint:
    """One rolling window's grade of one SLO."""

    index: int
    t_ms: float  # window end, simulated
    good: int
    total: int
    compliance: float  # good/total; 1.0 for an empty window
    burn_rate: float  # bad fraction / allowed bad fraction; 0 when empty
    budget_remaining: float  # cumulative budget fraction left (can go < 0)


@dataclass
class SloTimeline:
    """The windowed evaluation of one SLO over one record stream."""

    spec: SLOSpec
    window_ms: float
    points: List[WindowPoint] = field(default_factory=list)

    @property
    def final_budget_remaining(self) -> float:
        return self.points[-1].budget_remaining if self.points else 1.0

    @property
    def total_good(self) -> int:
        return sum(p.good for p in self.points)

    @property
    def total(self) -> int:
        return sum(p.total for p in self.points)

    @property
    def compliance(self) -> float:
        """Whole-run compliance (1.0 with no requests)."""
        total = self.total
        return self.total_good / total if total else 1.0


@dataclass(frozen=True)
class BurnRule:
    """A multi-window burn-rate alert condition.

    Fires when the mean burn rate over the trailing ``short`` windows AND
    over the trailing ``long`` windows are both at least ``threshold``;
    resolves when the short window drops back below it.  The long window
    filters one-window blips; the short window makes recovery prompt.
    """

    name: str
    short: int
    long: int
    threshold: float

    def __post_init__(self) -> None:
        if self.short <= 0 or self.long <= 0:
            raise ConfigError("burn-rule windows must be positive")
        if self.short > self.long:
            raise ConfigError("burn-rule short window must not exceed long")
        if self.threshold <= 0:
            raise ConfigError("burn-rule threshold must be positive")


#: Page-worthy fast burn plus a slow sustained-burn ticket condition.
DEFAULT_BURN_RULES = (
    BurnRule("fast_burn", short=1, long=4, threshold=4.0),
    BurnRule("slow_burn", short=6, long=24, threshold=1.0),
)


@dataclass(frozen=True)
class BurnAlert:
    """One state transition of one burn rule on one SLO."""

    slo: str
    rule: str
    state: str  # "firing" | "resolved"
    t_ms: float
    burn_short: float
    burn_long: float

    @property
    def name(self) -> str:
        return f"{self.slo}:{self.rule}"

    @property
    def firing(self) -> bool:
        return self.state == "firing"


def _window_count(horizon_ms: float, window_ms: float) -> int:
    count = int(horizon_ms / window_ms)
    if count * window_ms < horizon_ms:
        count += 1
    return max(1, count)


def evaluate_slo(
    spec: SLOSpec,
    records: Sequence[Dict[str, object]],
    window_ms: float,
    horizon_ms: Optional[float] = None,
) -> SloTimeline:
    """Grade one SLO over a request-record stream.

    Requests are bucketed by ``end_ms`` — the moment the outcome became
    known, which is when a real SLO pipeline would observe it.
    ``horizon_ms`` (default: the last outcome time) fixes the window
    count so timelines from different scenarios align.
    """
    if window_ms <= 0:
        raise ConfigError("SLO window must be positive")
    ends = [float(r.get("end_ms", 0.0)) for r in records]
    if horizon_ms is None:
        horizon_ms = max(ends) if ends else window_ms
    count = _window_count(horizon_ms, window_ms)
    good = [0] * count
    total = [0] * count
    for record, end in zip(records, ends):
        j = min(count - 1, max(0, int(end / window_ms)))
        total[j] += 1
        if spec.is_good(record):
            good[j] += 1
    timeline = SloTimeline(spec=spec, window_ms=window_ms)
    allowed = spec.budget_fraction
    cum_bad = 0
    cum_total = 0
    for j in range(count):
        bad = total[j] - good[j]
        cum_bad += bad
        cum_total += total[j]
        compliance = good[j] / total[j] if total[j] else 1.0
        burn = ((bad / total[j]) / allowed) if total[j] else 0.0
        if cum_total:
            budget = 1.0 - (cum_bad / cum_total) / allowed
        else:
            budget = 1.0
        timeline.points.append(
            WindowPoint(
                index=j,
                t_ms=(j + 1) * window_ms,
                good=good[j],
                total=total[j],
                compliance=compliance,
                burn_rate=burn,
                budget_remaining=budget,
            )
        )
    return timeline


def burn_alerts(
    timeline: SloTimeline,
    rules: Iterable[BurnRule] = DEFAULT_BURN_RULES,
) -> List[BurnAlert]:
    """Walk a timeline through the burn rules; returns all transitions."""
    alerts: List[BurnAlert] = []
    burns = [p.burn_rate for p in timeline.points]
    for rule in rules:
        firing = False
        for j, point in enumerate(timeline.points):
            lo_s = max(0, j - rule.short + 1)
            lo_l = max(0, j - rule.long + 1)
            short = sum(burns[lo_s : j + 1]) / (j + 1 - lo_s)
            long = sum(burns[lo_l : j + 1]) / (j + 1 - lo_l)
            if not firing and short >= rule.threshold and long >= rule.threshold:
                firing = True
                alerts.append(
                    BurnAlert(
                        slo=timeline.spec.name,
                        rule=rule.name,
                        state="firing",
                        t_ms=point.t_ms,
                        burn_short=short,
                        burn_long=long,
                    )
                )
            elif firing and short < rule.threshold:
                firing = False
                alerts.append(
                    BurnAlert(
                        slo=timeline.spec.name,
                        rule=rule.name,
                        state="resolved",
                        t_ms=point.t_ms,
                        burn_short=short,
                        burn_long=long,
                    )
                )
    alerts.sort(key=lambda a: (a.t_ms, a.slo, a.rule, a.state))
    return alerts


def burn_summary(
    timeline: SloTimeline,
    fault_windows: Sequence[Tuple[str, float, float, Dict[str, object]]],
    grace_ms: float = 0.0,
) -> Dict[str, float]:
    """Mean burn rate inside vs outside the ground-truth fault windows.

    "Inside" are windows overlapping any fault interval (extended by
    ``grace_ms`` to cover detection/repair lag).  A healthy observatory
    shows ``burn_in`` well above ``burn_out`` and a ``budget_final``
    that stops falling once the faults clear.
    """
    in_burns: List[float] = []
    out_burns: List[float] = []
    for point in timeline.points:
        w_start = point.t_ms - timeline.window_ms
        overlaps = any(
            w_start < (end + grace_ms) and start < point.t_ms
            for _, start, end, _ in fault_windows
        )
        (in_burns if overlaps else out_burns).append(point.burn_rate)
    return {
        "burn_in": sum(in_burns) / len(in_burns) if in_burns else 0.0,
        "burn_out": sum(out_burns) / len(out_burns) if out_burns else 0.0,
        "budget_final": timeline.final_budget_remaining,
    }


# -- fleet: per-node telemetry and detection ---------------------------------


def node_window_stats(
    calls: CallTable,
    window_ms: float,
    horizon_ms: Optional[float] = None,
) -> List[Dict[int, Dict[str, float]]]:
    """Bucket the shard calls of a run's
    :class:`~repro.obs.critpath.CallTable` into (window, node) cells.

    Returns one dict per window mapping node id to ``{"calls", "ok",
    "failed", "lat_sum"}`` — the raw material for per-node error-rate and
    latency series.  A call counts where it was sent, and where it was
    delivered or failed; ``lat_sum`` adds latencies in log order.  Times
    outside the horizon land in the last window.
    """
    if window_ms <= 0:
        raise ConfigError("window must be positive")
    sent = np.flatnonzero(~np.isnan(calls.call_submit))
    done = np.flatnonzero(calls.call_order >= 0)
    done = done[np.argsort(calls.call_order[done])]  # outcomes in log order
    t = np.concatenate((calls.call_submit[sent], calls.call_end[done]))
    if horizon_ms is None:
        last_t = float(t.max(initial=0.0))
        horizon_ms = last_t if last_t > 0 else window_ms
    count = _window_count(horizon_ms, window_ms)
    window = np.clip((t / window_ms).astype(np.int64), 0, count - 1)
    rows = np.concatenate((sent, done))
    # What each stamp counts: 0 a call sent, 1 a delivery, 2 a failure.
    tally = np.where(calls.call_ok[rows], 1, 2)
    tally[: sent.size] = 0
    out: List[Dict[int, Dict[str, float]]] = [{} for _ in range(count)]
    for j, node, k, lat in zip(
        window.tolist(), calls.call_node[rows].tolist(), tally.tolist(),
        calls.call_latency[rows].tolist(),
    ):
        cell = out[j].setdefault(
            node, {"calls": 0.0, "ok": 0.0, "failed": 0.0, "lat_sum": 0.0}
        )
        cell[("calls", "ok", "failed")[k]] += 1
        if k == 1:
            cell["lat_sum"] += lat
    return out


class FleetMonitor:
    """Per-node drift detection over windowed shard-call telemetry.

    Two detectors per node, both shift-up only: the **error rate**
    (failed / (ok + failed); a crash or partition pins it at 1.0) and the
    **mean ok-call latency** (a slow node multiplies it).  Windows where
    a node saw no finished calls carry no information and are skipped, so
    an ejected node stays in its alarm state until traffic actually
    returns and succeeds.

    :attr:`node_states` keeps one label per (window, node) for the
    dashboard health timelines: ``idle`` (no calls), ``ok``, ``warn``
    (latency alarm), ``bad`` (error alarm).
    """

    def __init__(
        self,
        num_nodes: int,
        *,
        warmup: int = 8,
        error_threshold: float = 8.0,
        latency_threshold: float = 6.0,
    ) -> None:
        if num_nodes <= 0:
            raise ConfigError("need at least one node")
        self.num_nodes = num_nodes
        self.error_detectors = [
            MeanShiftDetector(
                f"node{n}.error_rate",
                node=n,
                warmup=warmup,
                threshold=error_threshold,
                direction="up",
                min_sigma=0.05,
                min_sigma_frac=0.0,
            )
            for n in range(num_nodes)
        ]
        self.latency_detectors = [
            MeanShiftDetector(
                f"node{n}.latency_ms",
                node=n,
                warmup=warmup,
                threshold=latency_threshold,
                direction="up",
                min_sigma=1e-6,
                min_sigma_frac=0.25,
                alpha=0.1,
            )
            for n in range(num_nodes)
        ]
        self.node_states: List[List[str]] = []

    def run(
        self,
        windows: Sequence[Dict[int, Dict[str, float]]],
        window_ms: float,
    ) -> List[DetectionEvent]:
        """Feed every (window, node) cell through the detectors.

        Returns all state transitions in time order; also fills
        :attr:`node_states`.
        """
        events: List[DetectionEvent] = []
        self.node_states = []
        for j, cells in enumerate(windows):
            t = (j + 1) * window_ms
            states: List[str] = []
            for n in range(self.num_nodes):
                cell = cells.get(n)
                finished = (cell["ok"] + cell["failed"]) if cell else 0.0
                if cell is None or finished <= 0:
                    states.append(
                        "bad"
                        if self.error_detectors[n].firing
                        else ("warn" if self.latency_detectors[n].firing else "idle")
                    )
                    continue
                err_rate = cell["failed"] / finished
                event = self.error_detectors[n].update(t, err_rate)
                if event is not None:
                    events.append(event)
                if cell["ok"] > 0:
                    mean_lat = cell["lat_sum"] / cell["ok"]
                    event = self.latency_detectors[n].update(t, mean_lat)
                    if event is not None:
                        events.append(event)
                if self.error_detectors[n].firing:
                    states.append("bad")
                elif self.latency_detectors[n].firing:
                    states.append("warn")
                else:
                    states.append("ok")
            self.node_states.append(states)
        events.sort(key=lambda e: (e.t_ms, e.signal, e.state))
        return events


def score_detections(
    events: Sequence[DetectionEvent],
    fault_windows: Sequence[Tuple[str, float, float, Dict[str, object]]],
    grace_ms: float = 0.0,
) -> Dict[str, object]:
    """Grade fired detector alerts against ground-truth fault windows.

    A fault window (named ``class:node``, e.g. ``node_crash:1``) counts
    as **detected** when an alert fired on its node inside
    ``[start, end + grace_ms]``; its time-to-detect is the first such
    alert minus the fault start.  **Precision** asks the complementary
    question of every fired alert: did it fire while *some* fault was
    active?  (During a node kill the spillover load legitimately alarms
    neighbours, so precision is fault-scoped, not node-scoped; an alert
    in a quiet period is the false positive.)
    """
    firing = [e for e in events if e.state == "firing"]
    classes: Dict[str, Dict[str, object]] = {}
    all_mttd: List[float] = []
    detected_total = 0
    for name, start, end, attrs in fault_windows:
        cls = str(name).split(":")[0]
        node = attrs.get("node")
        matches = [
            e.t_ms
            for e in firing
            if e.node == node and start <= e.t_ms <= end + grace_ms
        ]
        entry = classes.setdefault(
            cls, {"windows": 0, "detected": 0, "mttd": []}
        )
        entry["windows"] += 1  # type: ignore[operator]
        if matches:
            entry["detected"] += 1  # type: ignore[operator]
            detected_total += 1
            mttd = min(matches) - start
            entry["mttd"].append(mttd)  # type: ignore[union-attr]
            all_mttd.append(mttd)
    true_pos = sum(
        1
        for e in firing
        if any(
            start <= e.t_ms <= end + grace_ms
            for _, start, end, _ in fault_windows
        )
    )
    per_class = {
        cls: {
            "windows": entry["windows"],
            "detected": entry["detected"],
            "recall": (
                entry["detected"] / entry["windows"] if entry["windows"] else 1.0
            ),
            "mttd_ms": (
                sum(entry["mttd"]) / len(entry["mttd"])  # type: ignore[arg-type]
                if entry["mttd"]
                else None
            ),
        }
        for cls, entry in sorted(classes.items())
    }
    windows_total = len(fault_windows)
    return {
        "alerts_fired": len(firing),
        "true_positives": true_pos,
        "precision": (true_pos / len(firing)) if firing else 1.0,
        "windows_total": windows_total,
        "windows_detected": detected_total,
        "recall": (detected_total / windows_total) if windows_total else 1.0,
        "mttd_ms": (sum(all_mttd) / len(all_mttd)) if all_mttd else None,
        "classes": per_class,
    }


# -- JSONL export shapes ------------------------------------------------------


def slo_state_records(
    timeline: SloTimeline, scenario: Optional[str] = None
) -> List[Dict[str, object]]:
    """One schema-valid ``slo_state`` line per window of a timeline."""
    out: List[Dict[str, object]] = []
    for point in timeline.points:
        record: Dict[str, object] = {
            "kind": "slo_state",
            "schema_version": SCHEMA_VERSION,
            "slo": timeline.spec.name,
            "slo_kind": timeline.spec.kind,
            "objective": timeline.spec.objective,
            "t_ms": point.t_ms,
            "window_ms": timeline.window_ms,
            "good": point.good,
            "total": point.total,
            "compliance": point.compliance,
            "burn_rate": point.burn_rate,
            "budget_remaining": point.budget_remaining,
        }
        if scenario is not None:
            record["scenario"] = scenario
        out.append(record)
    return out


def alert_record(
    alert, scenario: Optional[str] = None
) -> Dict[str, object]:
    """The schema-valid ``alert`` line for a burn alert or detector event."""
    if isinstance(alert, BurnAlert):
        record: Dict[str, object] = {
            "kind": "alert",
            "schema_version": SCHEMA_VERSION,
            "source": "slo_burn",
            "name": alert.name,
            "state": alert.state,
            "t_ms": alert.t_ms,
            "node": None,
            "score": alert.burn_short,
        }
    else:  # DetectionEvent
        record = {
            "kind": "alert",
            "schema_version": SCHEMA_VERSION,
            "source": "detector",
            "name": alert.signal,
            "state": alert.state,
            "t_ms": alert.t_ms,
            "node": alert.node,
            "score": alert.score,
        }
    if scenario is not None:
        record["scenario"] = scenario
    return record
