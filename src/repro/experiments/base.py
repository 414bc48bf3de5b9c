"""Shared experiment-report structure, text formatting, and run helpers.

A report is deliberately plain — a list of row dicts plus notes — so tests
can assert on values and the CLI can render a table without any plotting
dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from ..errors import ConfigError
from ..obs import hooks as obs_hooks
from ..obs.requests import RequestLog

__all__ = [
    "ExperimentReport",
    "format_report",
    "format_table",
    "logged_cluster_run",
    "report_from_dict",
    "report_to_dict",
]


@dataclass
class ExperimentReport:
    """Outcome of one experiment (one paper table or figure)."""

    experiment_id: str
    title: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    paper_reference: str = ""

    def columns(self) -> List[str]:
        """Column names in first-appearance order across all rows."""
        seen: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in seen:
                    seen.append(key)
        return seen

    def column(self, name: str) -> List[object]:
        """All values of one column (missing cells become None)."""
        if not self.rows:
            raise ConfigError("report has no rows")
        return [row.get(name) for row in self.rows]

    def filter_rows(self, **criteria: object) -> List[Dict[str, object]]:
        """Rows matching all the given column=value criteria."""
        return [
            row
            for row in self.rows
            if all(row.get(k) == v for k, v in criteria.items())
        ]


def _jsonify(value: object) -> object:
    """Recursively convert numpy scalars/arrays to plain Python values."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def report_to_dict(report: ExperimentReport) -> Dict[str, object]:
    """JSON-serializable form of a report (numpy values converted)."""
    return {
        "experiment_id": report.experiment_id,
        "title": report.title,
        "rows": _jsonify(report.rows),
        "notes": list(report.notes),
        "paper_reference": report.paper_reference,
    }


def report_from_dict(data: Dict[str, object]) -> ExperimentReport:
    """Inverse of :func:`report_to_dict` (used by the result cache)."""
    return ExperimentReport(
        experiment_id=str(data["experiment_id"]),
        title=str(data.get("title", "")),
        rows=list(data.get("rows", [])),  # type: ignore[arg-type]
        notes=list(data.get("notes", [])),  # type: ignore[arg-type]
        paper_reference=str(data.get("paper_reference", "")),
    )


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.1f}"
        if abs(value) >= 10:
            return f"{value:.2f}"
        return f"{value:.3f}"
    return str(value)


def format_table(rows: Sequence[Dict[str, object]], columns: Sequence[str]) -> str:
    """Render rows as an aligned text table."""
    if not rows:
        return "(no rows)"
    header = list(columns)
    body = [[_format_cell(row.get(col, "")) for col in header] for row in rows]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in body)) for i in range(len(header))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines.extend("  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in body)
    return "\n".join(lines)


def format_report(report: ExperimentReport) -> str:
    """Human-readable rendering of a full report."""
    parts = [f"== {report.experiment_id}: {report.title} =="]
    if report.paper_reference:
        parts.append(f"(paper: {report.paper_reference})")
    parts.append(format_table(report.rows, report.columns()))
    for note in report.notes:
        parts.append(f"note: {note}")
    return "\n".join(parts)


def logged_cluster_run(cluster, arrivals: np.ndarray):
    """Run ``cluster`` over ``arrivals`` with a request log, whatever
    session is active; returns its result and records, each built once.

    The active session's request log is used when it has one; otherwise
    the run logs privately, keeping the session's tracer and metrics so
    its spans and histograms still land in the session's artifacts.
    """
    outer = obs_hooks.active()
    obs = outer
    if outer is None or outer.requests is None:
        obs = obs_hooks.Observation(
            tracer=outer.tracer if outer is not None else None,
            metrics=outer.metrics if outer is not None else None,
            requests=RequestLog(),
        )
    with obs_hooks.session(obs):
        result = cluster.run(arrivals)
    return result, list(obs.requests.runs[-1].records)
