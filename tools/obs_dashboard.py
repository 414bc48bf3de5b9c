"""Render the observatory into one self-contained HTML page (stdlib only).

Pulls together the three offline telemetry artifacts and writes a single
file with no external assets — CI uploads it as the build's performance
dashboard::

    PYTHONPATH=src python tools/obs_dashboard.py \\
        --history BENCH_history.jsonl --metrics m.jsonl \\
        --request-log req.jsonl --out dashboard.html

Sections (each present only when its input is given):

* **benchmark trajectories** — one row per benchmark in the history:
  inline-SVG sparkline over all records, latest value, and delta vs the
  previous record (colored by whether it moved in the worse direction);
* **CPI stacks** — the per-stage cycle breakdown from a metrics JSONL;
* **SLA-miss attribution** — the request-log miss causes as a bar table;
* **fleet view** (cluster request logs) — per-node health timelines from
  the windowed drift detectors, the shard x node call heat map, and
  latency percentiles (blank, not NaN, when no request completed);
* **error budget** (``--slo-log``) — per-SLO budget-remaining sparkline,
  burn-rate peak, and the fired burn/detector alerts;
* **critical path** (``--critpath-log``) — per-scope latency attribution
  bars ("where does p99 go") and the counterfactual what-if prediction
  table with its validation verdicts.

The CPI, SLA-miss, error-budget and critical-path sections format the
view documents ``tools/trace_report.py`` computes (``metrics_data``,
``requests_data``, ``slo_data``, ``critpath_data``) — the same data its
text tables and ``--format json`` print — and only add the HTML.  The
fleet view runs the windowed drift detectors (``FleetMonitor``) over the
request records, which no ``trace_report`` view computes.
"""

from __future__ import annotations

import argparse
import html
import sys
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "tools"))

import trace_report  # noqa: E402
from repro.obs.cpi import CPI_BUCKETS  # noqa: E402
from repro.obs.regress import load_history  # noqa: E402
from repro.obs.requests import load_request_log  # noqa: E402
from repro.obs.slo import FleetMonitor, node_window_stats  # noqa: E402

__all__ = ["main", "render"]

DEFAULT_HISTORY = REPO_ROOT / "BENCH_history.jsonl"

_STYLE = """
body { font-family: ui-monospace, Menlo, Consolas, monospace;
       background: #111418; color: #d8dee4; margin: 2em; }
h1 { font-size: 1.3em; } h2 { font-size: 1.1em; margin-top: 2em;
     border-bottom: 1px solid #2a3038; padding-bottom: .3em; }
table { border-collapse: collapse; }
td, th { padding: .25em .9em; text-align: right; }
th { color: #8b949e; font-weight: normal; border-bottom: 1px solid #2a3038; }
td:first-child, th:first-child { text-align: left; }
.better { color: #3fb950; } .worse { color: #f85149; }
.flat { color: #8b949e; } .bar { background: #1f6feb; display: inline-block;
height: .7em; } .note { color: #8b949e; font-size: .85em; }
svg { vertical-align: middle; }
"""


def _sparkline(values: List[float], width: int = 120, height: int = 24) -> str:
    """Inline SVG polyline over the value series (min..max scaled)."""
    if len(values) < 2:
        return '<span class="note">n/a</span>'
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    step = width / (len(values) - 1)
    points = " ".join(
        f"{i * step:.1f},{height - 2 - (height - 4) * (v - lo) / span:.1f}"
        for i, v in enumerate(values)
    )
    last_x = (len(values) - 1) * step
    last_y = height - 2 - (height - 4) * (values[-1] - lo) / span
    return (
        f'<svg width="{width}" height="{height}">'
        f'<polyline points="{points}" fill="none" stroke="#58a6ff" '
        f'stroke-width="1.5"/>'
        f'<circle cx="{last_x:.1f}" cy="{last_y:.1f}" r="2.5" fill="#58a6ff"/>'
        "</svg>"
    )


def _bench_section(history: List[Dict[str, object]]) -> str:
    """Per-benchmark trajectory rows from the full history."""
    if not history:
        return "<h2>benchmark trajectories</h2><p class='note'>no records</p>"
    series: Dict[str, List[float]] = {}
    meta: Dict[str, Dict[str, object]] = {}
    for record in history:
        for name, bench in record.get("benchmarks", {}).items():
            series.setdefault(name, []).append(float(bench["value"]))
            meta[name] = bench
    rows = []
    for name in sorted(series):
        values = series[name]
        bench = meta[name]
        latest = values[-1]
        if len(values) >= 2 and values[-2] != 0:
            delta = (latest - values[-2]) / abs(values[-2])
            worse = delta > 0 if bench.get("direction") == "lower" else delta < 0
            cls = "flat" if abs(delta) < 1e-9 else ("worse" if worse else "better")
            delta_cell = f'<td class="{cls}">{delta:+.1%}</td>'
        else:
            delta_cell = '<td class="flat">—</td>'
        rows.append(
            "<tr>"
            f"<td>{html.escape(name)}</td>"
            f"<td>{_sparkline(values)}</td>"
            f"<td>{latest:,.4g}&nbsp;{html.escape(str(bench.get('unit', '')))}</td>"
            f"{delta_cell}"
            f"<td class='note'>{html.escape(str(bench.get('kind', '')))}</td>"
            "</tr>"
        )
    return (
        f"<h2>benchmark trajectories ({len(history)} record(s))</h2>"
        "<table><tr><th>benchmark</th><th>trend</th><th>latest</th>"
        "<th>delta</th><th>kind</th></tr>" + "".join(rows) + "</table>"
    )


def _cpi_section(doc: dict) -> str:
    """Per-stage CPI stacks of a ``trace_report.metrics_data`` document."""
    stacks = doc["cpi_stacks"]
    if not stacks:
        return "<h2>CPI stacks</h2><p class='note'>no core cycles recorded</p>"
    header = "".join(f"<th>{html.escape(b)}</th>" for b in CPI_BUCKETS)
    rows = []
    for stack in stacks:
        fractions = stack.fractions()
        cells = [
            f"<td><span class='bar' style='width:{60 * fractions[b]:.0f}px'></span>"
            f" {fractions[b]:.0%}</td>"
            for b in CPI_BUCKETS
        ]
        rows.append(
            f"<tr><td>{html.escape(stack.stage)}</td>"
            f"<td>{stack.total_cycles:,.0f}</td>"
            + "".join(cells)
            + "</tr>"
        )
    return (
        "<h2>CPI stacks</h2>"
        "<table><tr><th>stage</th><th>cycles</th>" + header + "</tr>"
        + "".join(rows)
        + "</table>"
    )


def _requests_section(doc: dict) -> str:
    """SLA-miss attribution of a ``trace_report.requests_data`` document."""
    meta = doc["meta"]
    head = (
        f"<h2>SLA-miss attribution</h2>"
        f"<p class='note'>{meta.get('runs', '?')} run(s), "
        f"{meta.get('requests', doc['records'])} request(s), "
        f"{meta.get('dropped', 0)} dropped</p>"
    )
    totals = doc["totals"]
    if totals["failovers"] or totals["hedges"] or totals["degraded"]:
        head += (
            f"<p class='note'>fleet: {totals['failovers']} failover(s), "
            f"{totals['hedges']} hedge(s) ({totals['hedges_wasted']} wasted), "
            f"{totals['degraded']} degraded (partial) result(s)</p>"
        )
    attribution = doc["miss_attribution"]
    if not attribution:
        return head + "<p class='note'>every request met its deadline</p>"
    total = doc["missed"]
    rows = []
    for cause, count in attribution.items():
        frac = count / total
        rows.append(
            f"<tr><td>{html.escape(cause)}</td><td>{count}</td>"
            f"<td><span class='bar' style='width:{160 * frac:.0f}px'></span>"
            f" {frac:.0%}</td></tr>"
        )
    return (
        head
        + "<table><tr><th>cause</th><th>requests</th><th>share</th></tr>"
        + "".join(rows)
        + f"<tr><td>total missed</td><td>{total}</td><td></td></tr></table>"
    )


#: Health-timeline cell colors (state -> fill).
_HEALTH_COLORS = {
    "idle": "#2a3038",
    "ok": "#1f6f3f",
    "warn": "#b08800",
    "bad": "#b62324",
}

#: Timeline resolution of the dashboard fleet view (windows per run).
_FLEET_WINDOWS = 60


def _percentile(sorted_values: List[float], q: float) -> float:
    """Linear-interpolation percentile of a pre-sorted list."""
    rank = (len(sorted_values) - 1) * (q / 100.0)
    lo = int(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (rank - lo)


def _fleet_section(records: List[Dict[str, object]]) -> str:
    """Per-node health timelines + shard heat map for a cluster log.

    Only renders for logs whose records carry per-node shard-call events
    (single-box logs have no node identity).  A run where *no* request
    completed renders blank percentile cells, never NaN — shed/failed
    records still feed the health timelines.
    """
    nodes = sorted(
        {
            int(ev["node"])
            for rec in records
            for ev in rec.get("events", [])  # type: ignore[union-attr]
            if ev.get("node") is not None
            and ev.get("kind") in ("shard_call", "call_ok", "call_failed")
        }
    )
    if not nodes:
        return ""
    num_nodes = max(nodes) + 1
    horizon = max(
        (float(rec.get("end_ms", 0.0) or 0.0) for rec in records), default=0.0
    )
    out = ["<h2>fleet view</h2>"]

    if horizon > 0:
        window_ms = horizon / _FLEET_WINDOWS
        monitor = FleetMonitor(num_nodes)
        monitor.run(node_window_stats(records, window_ms, horizon), window_ms)
        rows = []
        for n in range(num_nodes):
            cells = "".join(
                f"<td style='background:{_HEALTH_COLORS[states[n]]};"
                "padding:.1em .25em'></td>"
                for states in monitor.node_states
            )
            rows.append(f"<tr><td>node{n}</td>{cells}</tr>")
        legend = " ".join(
            f"<span style='color:{color}'>&#9632;</span>&nbsp;{state}"
            for state, color in _HEALTH_COLORS.items()
        )
        out.append(
            f"<h3>node health ({_FLEET_WINDOWS} windows of "
            f"{window_ms:,.1f} ms)</h3>"
            f"<p class='note'>{legend} &mdash; drift detectors on windowed "
            "error rate (bad) and ok-call latency (warn)</p>"
            "<table>" + "".join(rows) + "</table>"
        )

    calls: Dict[tuple, int] = {}
    shards = set()
    for rec in records:
        for ev in rec.get("events", []):  # type: ignore[union-attr]
            if ev.get("kind") != "shard_call" or ev.get("node") is None:
                continue
            key = (int(ev["node"]), int(ev.get("shard", -1)))
            shards.add(key[1])
            calls[key] = calls.get(key, 0) + 1
    if calls:
        shard_cols = sorted(shards)
        peak = max(calls.values())
        header = "".join(f"<th>s{s}</th>" for s in shard_cols)
        rows = []
        for n in nodes:
            cells = []
            for s in shard_cols:
                count = calls.get((n, s), 0)
                alpha = count / peak if peak else 0.0
                cells.append(
                    f"<td style='background:rgba(31,111,235,{alpha:.2f})'>"
                    f"{count or ''}</td>"
                )
            rows.append(f"<tr><td>node{n}</td>{''.join(cells)}</tr>")
        out.append(
            "<h3>shard calls (node x shard)</h3>"
            "<table><tr><th></th>" + header + "</tr>" + "".join(rows)
            + "</table>"
        )

    latencies = sorted(
        float(rec["latency_ms"])  # type: ignore[arg-type]
        for rec in records
        if rec.get("latency_ms") is not None
    )
    if latencies:
        out.append(
            f"<p class='note'>completed latency over {len(latencies):,} "
            f"request(s): p50 {_percentile(latencies, 50.0):,.2f} ms, "
            f"p95 {_percentile(latencies, 95.0):,.2f} ms, "
            f"p99 {_percentile(latencies, 99.0):,.2f} ms</p>"
        )
    else:
        out.append(
            "<p class='note'>completed latency: no completed requests "
            "(percentiles blank)</p>"
        )
    return "".join(out)


def _slo_section(doc: dict) -> str:
    """Error-budget trajectories and alerts of a ``trace_report.slo_data`` document."""
    budgets, firing = doc["budgets"], doc["alerts"]
    if not budgets and not doc["alert_records"]:
        return "<h2>error budget</h2><p class='note'>empty SLO log</p>"
    out = ["<h2>error budget</h2>"]
    if budgets:
        rows = []
        for b in budgets:
            final = b["budget_final"]
            cls = "worse" if final < 0 else ("better" if final >= 0.99 else "flat")
            rows.append(
                "<tr>"
                f"<td>{html.escape(str(b['scenario']))}</td>"
                f"<td>{html.escape(str(b['slo']))}</td>"
                f"<td>{_sparkline(b['budget_series'])}</td>"
                f"<td class='{cls}'>{final:+.3f}</td>"
                f"<td>{b['peak_burn']:,.1f}</td><td>{b['alerts']}</td>"
                "</tr>"
            )
        out.append(
            "<table><tr><th>scenario</th><th>SLO</th>"
            "<th>budget remaining</th><th>final</th><th>peak burn</th>"
            "<th>alerts</th></tr>" + "".join(rows) + "</table>"
        )
    if firing:
        alert_rows = "".join(
            "<tr>"
            f"<td>{html.escape(str(a.get('scenario', '')))}</td>"
            f"<td>{html.escape(str(a.get('name', '')))}</td>"
            f"<td>{html.escape(str(a.get('source', '')))}</td>"
            f"<td>{float(a.get('t_ms', 0.0)):,.1f}</td>"
            f"<td>{'' if a.get('node') is None else a['node']}</td>"
            "</tr>"
            for a in firing
        )
        out.append(
            f"<h3>alerts fired ({len(firing)})</h3>"
            "<table><tr><th>scenario</th><th>alert</th><th>source</th>"
            "<th>t_ms</th><th>node</th></tr>" + alert_rows + "</table>"
        )
    else:
        out.append("<p class='note'>no alerts fired</p>")
    return "".join(out)


#: Segment-kind colors for the critical-path attribution bars.
_SEGMENT_COLORS = {
    "queue": "#1f6feb",
    "service": "#1f6f3f",
    "penalty": "#b62324",
    "network": "#8b949e",
    "hedge_wait": "#b08800",
    "recovery": "#a371f7",
    "backoff": "#db6d28",
    "other": "#2a3038",
}


def _critpath_section(doc: dict) -> str:
    """Attribution bars + what-if table of a ``trace_report.critpath_data`` document."""
    if not doc["profiles"] and not doc["whatif"]:
        return "<h2>critical path</h2><p class='note'>empty critpath log</p>"
    out = ["<h2>critical path</h2>"]
    if doc["profiles"]:
        legend = " ".join(
            f"<span style='color:{color}'>&#9632;</span>&nbsp;{kind}"
            for kind, color in _SEGMENT_COLORS.items()
        )
        rows = []
        # Node/shard scopes stay in the log; the page shows the headline
        # (fleet-wide and tail) breakdowns.
        for prof in doc["headline"]:
            total = float(prof.get("total_ms", 0.0))
            cells = "".join(
                f"<span class='bar' style='background:"
                f"{_SEGMENT_COLORS.get(kind, '#2a3038')};"
                f"width:{240.0 * dur / total:.0f}px' title='{html.escape(kind)}"
                f" {dur:,.1f} ms'></span>"
                for kind, dur in prof["segments"].items()
                if total > 0 and dur > 0
            )
            rows.append(
                "<tr>"
                f"<td>{html.escape(str(prof.get('scenario', '')))}/"
                f"{html.escape(str(prof.get('scope', '?')))}</td>"
                f"<td>{int(prof.get('requests', 0))}</td>"
                f"<td>{total:,.1f}</td>"
                f"<td>{html.escape(str(prof.get('bottleneck') or '-'))}</td>"
                f"<td style='text-align:left'>{cells}</td>"
                "</tr>"
            )
        out.append(
            f"<p class='note'>{legend}</p>"
            "<table><tr><th>scenario/scope</th><th>requests</th>"
            "<th>total_ms</th><th>bottleneck</th><th>attribution</th></tr>"
            + "".join(rows)
            + "</table>"
        )
    if doc["whatif"]:
        rows = []
        for rec in doc["whatif"]:
            actual = rec.get("actual")
            predicted = float(rec.get("predicted", 0.0))
            bounds = rec.get("within_bounds")
            cls = "flat" if bounds is None else ("better" if bounds else "worse")
            verdict = "—" if bounds is None else ("ok" if bounds else "MISS")
            rows.append(
                "<tr>"
                f"<td>{html.escape(str(rec.get('scenario', '')))}/"
                f"{html.escape(str(rec.get('knob', '?')))}</td>"
                f"<td>{float(rec.get('value', 0.0)):g}</td>"
                f"<td>{float(rec.get('baseline', 0.0)):,.2f}</td>"
                f"<td>{predicted:,.2f}</td>"
                f"<td>{'—' if actual is None else f'{float(actual):,.2f}'}</td>"
                f"<td class='{cls}'>{verdict}</td>"
                f"<td class='note'>{'est' if rec.get('estimated') else 'exact'}</td>"
                "</tr>"
            )
        out.append(
            "<h3>what-if predictions (p99, ms)</h3>"
            "<table><tr><th>scenario/knob</th><th>value</th>"
            "<th>baseline</th><th>predicted</th><th>actual</th>"
            "<th>verdict</th><th>mode</th></tr>" + "".join(rows) + "</table>"
        )
    return "".join(out)


def render(
    history_path: Optional[Path],
    metrics_path: Optional[Path],
    request_log_path: Optional[Path],
    slo_log_path: Optional[Path] = None,
    critpath_log_path: Optional[Path] = None,
) -> str:
    """The full dashboard HTML document."""
    def given(path: Optional[Path]) -> bool:
        return path is not None and path.exists()

    sections: List[str] = []
    if given(history_path):
        sections.append(_bench_section(load_history(history_path)))
    if given(metrics_path):
        records = trace_report.load_jsonl(metrics_path)
        sections.append(_cpi_section(trace_report.metrics_data(records)))
    if given(request_log_path):
        # One read feeds both the miss-attribution and the fleet section.
        meta, records = load_request_log(request_log_path)
        sections.append(_requests_section(trace_report.requests_data(meta, records)))
        fleet = _fleet_section(records)
        if fleet:
            sections.append(fleet)
    if given(slo_log_path):
        lines = trace_report.load_jsonl(slo_log_path)
        sections.append(_slo_section(trace_report.slo_data(lines)))
    if given(critpath_log_path):
        lines = trace_report.load_jsonl(critpath_log_path)
        sections.append(_critpath_section(trace_report.critpath_data(lines)))
    if not sections:
        sections.append("<p class='note'>no artifacts given</p>")
    return (
        "<!doctype html><html><head><meta charset='utf-8'>"
        "<title>repro observatory</title>"
        f"<style>{_STYLE}</style></head><body>"
        "<h1>repro observatory</h1>"
        + "".join(sections)
        + "</body></html>\n"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--history", type=Path, default=DEFAULT_HISTORY,
        help=f"benchmark history JSONL (default {DEFAULT_HISTORY.name})",
    )
    parser.add_argument(
        "--metrics", type=Path, default=None,
        help="metrics JSONL from repro-experiment --metrics",
    )
    parser.add_argument(
        "--request-log", type=Path, default=None,
        help="request-log JSONL from repro-experiment --request-log",
    )
    parser.add_argument(
        "--slo-log", type=Path, default=None,
        help="SLO state/alert JSONL from repro-experiment --slo-log",
    )
    parser.add_argument(
        "--critpath-log", type=Path, default=None,
        help="critical-path/what-if JSONL from repro-experiment "
        "--critpath-log",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("dashboard.html"),
        help="output HTML file (default dashboard.html)",
    )
    args = parser.parse_args(argv)
    page = render(
        args.history, args.metrics, args.request_log, args.slo_log,
        args.critpath_log,
    )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(page)
    print(f"wrote {args.out} ({len(page):,} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
