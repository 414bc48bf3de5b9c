"""Summarize repro.obs artifacts: traces, metrics, and request logs.

The offline half of the telemetry layer — point it at the files written by
``repro-experiment --trace/--metrics/--request-log`` and it prints the
VTune-style summary views::

    PYTHONPATH=src python tools/trace_report.py t.json
    PYTHONPATH=src python tools/trace_report.py t.json --metrics m.jsonl
    PYTHONPATH=src python tools/trace_report.py t.json --top 20 --validate
    PYTHONPATH=src python tools/trace_report.py --requests req.jsonl

Views:

* **top spans** — the N longest simulated spans (cycles), the first thing
  to look at when asking "where did the time go";
* **by name** — aggregate cycles/count per span name across all tracks;
* **wall spans** — real elapsed time of orchestration code;
* with ``--metrics``: the per-stage CPI stack table and every latency
  histogram's count/mean/p50/p95/p99;
* with ``--requests``: the slowest-N request timelines (every lifecycle
  event, simulated ms, and the fault windows each overlapped) and the
  SLA-miss attribution table — admission control, partitions and node
  faults for the requests that did not complete, and each late
  completion's dominant critical-path segment (queue, service, penalty,
  network, hedge wait, recovery, backoff);
* with ``--fleet`` (needs a trace): the fleet view of a cluster trace —
  request outcomes, per-node attempt/hedge accounting, router decision
  counts, and the slowest request span envelopes (from the ``fleet.*``
  spans a traced cluster run emits);
* with ``--critpath``: critical-path attribution computed from the
  ``--requests`` log — per-scope "where does the time go" profiles
  (overall, p99 tail, per node/shard) and the conservation check;
* with ``--critpath-log``: the profiles and what-if predictions an
  experiment exported (``repro-experiment critpath_observatory
  --critpath-log``), validated against ``$defs.critpath_record`` /
  ``$defs.whatif_record`` under ``--validate``;
* ``--format json`` emits every requested view as one machine-readable
  JSON document instead of text tables;
* ``--validate`` checks the trace against ``tools/trace_schema.json``
  and each request-log line against its ``$defs.request_event`` (exit 1
  on violations) — CI runs this on fresh smoke artifacts.

Each view is computed once, by its ``*_data`` function, into a plain view
document: every count, sort, filter and top-N cut happens there.
``--format json`` prints those documents (``--metrics`` prints its raw
records); each ``summarize_*`` only formats one document's cells into a
text table, and ``tools/obs_dashboard.py`` renders its HTML sections from
the same documents.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.cpi import CPI_BUCKETS, CpiStack, format_cpi_table  # noqa: E402
from repro.obs.critpath import (  # noqa: E402
    check_conservation,
    extract_paths,
    aggregate_profiles,
)
from repro.obs.requests import (  # noqa: E402
    attribute_miss,
    load_request_log,
    miss_attribution,
)
from repro.obs.schema import validate, validate_def  # noqa: E402

__all__ = [
    "main",
    "critpath_data",
    "fleet_data",
    "load_jsonl",
    "load_trace",
    "metrics_data",
    "requests_data",
    "slo_data",
    "summarize",
    "summarize_critpath",
    "summarize_fleet",
    "summarize_metrics",
    "summarize_requests",
    "summarize_slo",
    "trace_data",
]

SCHEMA_PATH = REPO_ROOT / "tools" / "trace_schema.json"


def load_trace(path: Path) -> dict:
    """Read a Chrome-trace JSON file."""
    with open(path) as fh:
        return json.load(fh)


def load_jsonl(path: Path) -> List[dict]:
    """Read a JSONL export (metrics, SLO or critpath log), one record a line."""
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _complete_spans(trace: dict, keep: Callable[[dict], bool]) -> List[dict]:
    """Complete (``ph == "X"``) events of a trace that ``keep`` accepts."""
    return [
        e for e in trace.get("traceEvents", []) if e.get("ph") == "X" and keep(e)
    ]


def _longest(events: List[dict], top: int) -> List[dict]:
    """The ``top`` events with the longest ``dur``, longest first."""
    return sorted(events, key=lambda e: float(e.get("dur", 0.0)), reverse=True)[:top]


def _cell(value: object, absent: str = "") -> str:
    """One table cell; ``absent`` stands in for a missing value."""
    return absent if value is None else str(value)


def _table(header: List[str], rows: List[List[str]]) -> str:
    """Right-aligned text table (first column left-aligned)."""
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    out = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for r in rows:
        cells = [r[0].ljust(widths[0])] + [
            c.rjust(w) for c, w in zip(r[1:], widths[1:])
        ]
        out.append("  ".join(cells))
    return "\n".join(out)


# -- view documents (also the --format json output) ---------------------------


def trace_data(trace: dict, top: int = 10) -> dict:
    """The trace view: span counts, top sim spans, cycles by name, wall spans."""
    sim = _complete_spans(
        trace, lambda e: e.get("pid") == 2 and e.get("cat") != "sim.meta"
    )
    wall = _complete_spans(trace, lambda e: e.get("pid") == 1)
    agg: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for e in sim:
        entry = agg[str(e.get("name", "?"))]
        entry[0] += float(e.get("dur", 0.0))
        entry[1] += 1
    return {
        "sim_spans": len(sim),
        "wall_spans": len(wall),
        "dropped": trace.get("otherData", {}).get("dropped_events", 0),
        "top_sim_spans": [
            {
                "name": e.get("name"),
                "category": e.get("cat"),
                "tid": e.get("tid"),
                "start": e.get("ts", 0.0),
                "cycles": e.get("dur", 0.0),
            }
            for e in _longest(sim, top)
        ],
        "by_name": [
            {"name": name, "total_cycles": total, "spans": int(count)}
            for name, (total, count) in sorted(
                agg.items(), key=lambda kv: kv[1][0], reverse=True
            )[:top]
        ],
        "wall": [
            {
                "name": e.get("name"),
                "ms": float(e.get("dur", 0.0)) / 1000.0,
                "depth": e.get("args", {}).get("depth"),
            }
            for e in _longest(wall, top)
        ],
    }


def metrics_data(records: List[dict]) -> dict:
    """The metrics view: CPI stacks, populated histograms, record types.

    This is the one CPI-stack parse of metric records: per-stage
    ``core.cycles`` plus its ``core.cpi.*`` buckets, largest stage first.
    ``--format json`` prints the raw records rather than this document.
    """
    cycles: Dict[str, float] = {}
    buckets: Dict[str, Dict[str, float]] = defaultdict(dict)
    for rec in records:
        name, stage = rec.get("name", ""), rec.get("labels", {}).get("stage")
        if stage is None:
            continue
        if name == "core.cycles":
            cycles[stage] = float(rec.get("value", 0.0))
        elif name.startswith("core.cpi."):
            buckets[stage][name[len("core.cpi."):]] = float(rec.get("value", 0.0))
    stacks = [
        CpiStack(stage, total, {b: buckets[stage].get(b, 0.0) for b in CPI_BUCKETS})
        for stage, total in cycles.items()
    ]
    stacks.sort(key=lambda s: s.total_cycles, reverse=True)
    types = [r.get("type") for r in records]
    return {
        "cpi_stacks": stacks,
        "histograms": [
            r for r in records if r.get("type") == "histogram" and r.get("count")
        ],
        "counts": {t: types.count(t) for t in ("counter", "gauge", "histogram")},
    }


def _in_system_ms(rec: dict) -> float:
    """Latency of a completed request, else its time in the system."""
    if rec.get("latency_ms") is not None:
        return float(rec["latency_ms"])
    return float(rec.get("end_ms", 0.0)) - float(rec.get("arrival_ms", 0.0))


def _nodes(rec: dict) -> List[object]:
    """The serving node(s) of one request record; empty for a single box.

    Cluster records carry the sorted node set every shard call of the
    request touched; single-box records have no node identity.
    """
    if rec.get("nodes"):
        return list(rec["nodes"])
    return [] if rec.get("node") is None else [rec["node"]]


def requests_data(meta: dict, records: List[dict], top: int = 10) -> dict:
    """The request-log view: miss attribution, fleet totals, slowest-N.

    Causes run biggest first, name breaking ties — independent of record
    order, so diffs across runs are clean.  The slowest requests are the
    completed ones by latency, then every non-completed one by its time
    in the system.
    """
    attribution = miss_attribution(records)
    totals = {
        field: sum(int(r.get(field, 0) or 0) for r in records)
        for field in ("failovers", "hedges", "hedges_wasted")
    }
    totals["degraded"] = sum(1 for r in records if r.get("outcome") == "degraded")
    return {
        "meta": meta,
        "records": len(records),
        "miss_attribution": dict(
            sorted(attribution.items(), key=lambda kv: (-kv[1], kv[0]))
        ),
        "missed": sum(attribution.values()),
        "totals": totals,
        "slowest": [
            {
                "id": rec.get("id"),
                "label": rec.get("label"),
                "outcome": rec.get("outcome"),
                "in_system_ms": _in_system_ms(rec),
                "wait_ms": rec.get("wait_ms"),
                "service_ms": rec.get("service_ms"),
                "core": rec.get("core"),
                "nodes": _nodes(rec),
                "retries": rec.get("retries", 0),
                "failovers": rec.get("failovers", 0),
                "hedges": rec.get("hedges", 0),
                "hedges_wasted": rec.get("hedges_wasted", 0),
                "miss_cause": attribute_miss(rec),
                "fault_windows": rec.get("fault_windows", []),
                "events": rec.get("events", []),
            }
            for rec in sorted(records, key=_in_system_ms, reverse=True)[:top]
        ],
    }


def fleet_data(trace: dict, top: int = 10) -> dict:
    """The fleet view of a cluster trace: outcomes, per-node, router, slowest.

    Everything comes from the merged span forest the cluster emitted
    (``fleet.request`` / ``fleet.gather`` / ``fleet.route`` /
    ``fleet.attempt`` categories), so the tables are exactly the span
    tree a distributed tracer would show — outcomes per node, hedge
    win/waste accounting, and why the router was consulted.
    """
    spans = _complete_spans(
        trace, lambda e: str(e.get("cat", "")).startswith("fleet.")
    )
    requests = [e for e in spans if e.get("cat") == "fleet.request"]
    attempts = [e for e in spans if e.get("cat") == "fleet.attempt"]
    routes = [e for e in spans if e.get("cat") == "fleet.route"]
    outcomes: Dict[str, int] = defaultdict(int)
    for e in requests:
        outcomes[str(e.get("args", {}).get("outcome", "?"))] += 1
    per_node: Dict[int, Dict[str, float]] = defaultdict(
        lambda: {"attempts": 0, "ok": 0, "failed": 0, "hedges": 0,
                 "wasted": 0, "ms": 0.0, "max_ms": 0.0}
    )
    for e in attempts:
        args = e.get("args", {})
        stats = per_node[int(args.get("node", -1))]
        stats["attempts"] += 1
        if args.get("outcome") == "ok":
            stats["ok"] += 1
            if args.get("winner") is False:
                stats["wasted"] += 1
        else:
            stats["failed"] += 1
        if args.get("hedge"):
            stats["hedges"] += 1
        dur = float(e.get("dur", 0.0))
        stats["ms"] += dur
        stats["max_ms"] = max(stats["max_ms"], dur)
    reasons: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
    for e in routes:
        args = e.get("args", {})
        entry = reasons[str(args.get("reason", "?"))]
        entry[0] += 1
        if args.get("chosen") is None:
            entry[1] += 1
    return {
        "spans": len(spans),
        "requests": len(requests),
        "attempts": len(attempts),
        "routes": len(routes),
        "outcomes": dict(sorted(outcomes.items(), key=lambda kv: (-kv[1], kv[0]))),
        "per_node": {
            str(node): stats for node, stats in sorted(per_node.items())
        },
        "router": {
            reason: {"decisions": total, "no_replica": missed}
            for reason, (total, missed) in sorted(reasons.items())
        },
        "slowest": [
            {
                "span_id": e.get("args", {}).get("span_id"),
                "outcome": e.get("args", {}).get("outcome"),
                "start_ms": float(e.get("ts", 0.0)),
                "ms": float(e.get("dur", 0.0)),
            }
            for e in _longest(requests, top)
        ],
    }


def slo_data(lines: List[dict]) -> dict:
    """The SLO-log view: one budget per (scenario, SLO) and the fired alerts."""
    states: Dict[tuple, List[dict]] = defaultdict(list)
    alerts: List[dict] = []
    for rec in lines:
        if rec.get("kind") == "slo_state":
            states[
                (str(rec.get("scenario", "")), str(rec.get("slo", "")))
            ].append(rec)
        elif rec.get("kind") == "alert":
            alerts.append(rec)
    firing = [a for a in alerts if a.get("state") == "firing"]
    return {
        "budgets": [
            {
                "scenario": scenario,
                "slo": slo,
                "windows": len(series),
                "min_compliance": min(
                    float(s.get("compliance", 1.0)) for s in series
                ),
                "peak_burn": max(
                    float(s.get("burn_rate", 0.0)) for s in series
                ),
                "budget_final": float(series[-1].get("budget_remaining", 1.0)),
                "budget_series": [
                    float(s.get("budget_remaining", 1.0)) for s in series
                ],
                "alerts": sum(
                    1
                    for a in firing
                    if str(a.get("scenario", "")) == scenario
                    and str(a.get("name", "")).startswith(f"{slo}:")
                ),
            }
            for (scenario, slo), series in sorted(states.items())
        ],
        "alerts": firing,
        "alert_records": len(alerts),
    }


def critpath_from_requests(records: List[dict]) -> List[dict]:
    """Profile records (plus a conservation line) computed from a request log."""
    paths = extract_paths(records)
    violations = sum(1 for p in paths if check_conservation(p) != 0.0)
    return [
        {
            "kind": "critpath_conservation",
            "requests": len(paths),
            "violations": violations,
        }
    ] + aggregate_profiles(paths)


def critpath_data(lines: List[dict]) -> dict:
    """The critpath view: conservation lines, profiles, what-if records.

    Each profile's segments run longest first.  ``headline`` holds the
    fleet-wide and tail profiles (node/shard scopes left out), the ones
    the dashboard draws.
    """
    profiles = [
        dict(
            r,
            segments=dict(
                sorted(r.get("segments", {}).items(), key=lambda kv: -kv[1])
            ),
        )
        for r in lines
        if r.get("kind") == "critpath_profile"
    ]
    return {
        "conservation": [
            r for r in lines if r.get("kind") == "critpath_conservation"
        ],
        "profiles": profiles,
        "whatif": [r for r in lines if r.get("kind") == "whatif"],
        "headline": [
            p
            for p in profiles
            if str(p.get("scope", "?")) == "overall"
            or str(p.get("scope", "?")).startswith("tail_")
        ],
    }


# -- text views: each formats one view document -------------------------------


def summarize(doc: dict) -> str:
    """The text report of one trace view document."""
    sections = [
        f"trace: {doc['sim_spans']} sim spans, {doc['wall_spans']} wall spans, "
        f"{doc['dropped']} dropped"
    ]
    if doc["top_sim_spans"]:
        rows = [
            [
                _cell(s["name"], "?"),
                _cell(s["category"]),
                _cell(s["tid"], "0"),
                f"{s['start']:,.0f}",
                f"{s['cycles']:,.0f}",
            ]
            for s in doc["top_sim_spans"]
        ]
        sections.append(
            f"== top {len(rows)} sim spans by cycles ==\n"
            + _table(["name", "category", "tid", "start_cycles", "cycles"], rows)
        )
        sections.append(
            "== sim cycles by span name ==\n"
            + _table(
                ["name", "total_cycles", "spans"],
                [
                    [a["name"], f"{a['total_cycles']:,.0f}", str(a["spans"])]
                    for a in doc["by_name"]
                ],
            )
        )
    if doc["wall"]:
        rows = [
            [_cell(w["name"], "?"), f"{w['ms']:,.1f}", _cell(w["depth"])]
            for w in doc["wall"]
        ]
        sections.append(
            "== wall spans (ms) ==\n" + _table(["name", "ms", "depth"], rows)
        )
    return "\n\n".join(sections)


def summarize_metrics(doc: dict) -> str:
    """CPI stacks and histogram summaries of one metrics view document."""
    sections: List[str] = []
    if doc["cpi_stacks"]:
        sections.append("== CPI stacks ==\n" + format_cpi_table(doc["cpi_stacks"]))
    rows = []
    for rec in doc["histograms"]:
        label_str = ",".join(f"{k}={v}" for k, v in sorted(rec.get("labels", {}).items()))
        rows.append(
            [
                rec["name"] + (f"{{{label_str}}}" if label_str else ""),
                f"{rec['count']:,}",
                f"{rec['sum'] / rec['count']:,.1f}",
                f"{rec.get('p50', 0.0):,.1f}",
                f"{rec.get('p95', 0.0):,.1f}",
                f"{rec.get('p99', 0.0):,.1f}",
            ]
        )
    if rows:
        sections.append(
            "== latency histograms ==\n"
            + _table(["histogram", "count", "mean", "p50", "p95", "p99"], rows)
        )
    counts = doc["counts"]
    sections.append(
        f"metrics: {counts['counter']} counters, {counts['gauge']} gauges, "
        f"{counts['histogram']} histograms"
    )
    return "\n\n".join(sections)


def _fmt_ms(value: object) -> str:
    """Milliseconds for the timeline tables; '-' for absent values."""
    if value is None:
        return "-"
    return f"{float(value):,.2f}"


def summarize_requests(doc: dict) -> str:
    """Slowest-N request timelines and the SLA-miss attribution table."""
    meta = doc["meta"]
    sections = [
        f"request log: {meta.get('runs', '?')} run(s), "
        f"{meta.get('requests', doc['records'])} request(s), "
        f"{meta.get('dropped', 0)} dropped"
    ]
    if not doc["records"]:
        return sections[0]

    missed = doc["missed"]
    if doc["miss_attribution"]:
        rows = [
            [cause, str(count), f"{100.0 * count / missed:.1f}%"]
            for cause, count in doc["miss_attribution"].items()
        ]
        rows.append(["total", str(missed), "100.0%"])
        sections.append(
            "== SLA-miss attribution ==\n"
            + _table(["cause", "requests", "share"], rows)
        )
    else:
        sections.append("SLA-miss attribution: every request met its deadline")

    lines = [f"== slowest {len(doc['slowest'])} requests =="]
    for rank, rec in enumerate(doc["slowest"], 1):
        head = (
            f"#{rank} id={rec['id']} label={rec['label']} "
            f"outcome={rec['outcome']} "
            f"in_system={rec['in_system_ms']:,.2f}ms "
            f"wait={_fmt_ms(rec['wait_ms'])}ms "
            f"service={_fmt_ms(rec['service_ms'])}ms "
            f"core={_cell(rec['core'], '-')} "
            f"node={','.join(str(n) for n in rec['nodes']) or '-'} "
            f"retries={rec['retries']}"
        )
        if rec["failovers"]:
            head += f" failovers={rec['failovers']}"
        if rec["hedges"]:
            head += f" hedges={rec['hedges']} hedges_wasted={rec['hedges_wasted']}"
        if rec["miss_cause"] is not None:
            head += f" miss_cause={rec['miss_cause']}"
        if rec["fault_windows"]:
            head += f" faults={','.join(rec['fault_windows'])}"
        lines.append(head)
        for event in rec["events"]:
            attrs = ", ".join(
                f"{k}={v}"
                for k, v in event.items()
                if k not in ("kind", "t_ms") and v is not None
            )
            lines.append(
                f"    {float(event.get('t_ms', 0.0)):>12,.3f}ms  "
                f"{event.get('kind')}"
                + (f"  ({attrs})" if attrs else "")
            )
    sections.append("\n".join(lines))
    return "\n\n".join(sections)


def summarize_fleet(doc: dict) -> str:
    """Per-node attempts and router behaviour of one fleet view document."""
    if not doc["spans"]:
        return (
            "fleet: no fleet spans in this trace "
            "(run a cluster experiment with --trace)"
        )
    node_rows = [
        [
            f"node{node}",
            str(s["attempts"]),
            str(s["ok"]),
            str(s["failed"]),
            str(s["hedges"]),
            str(s["wasted"]),
            f"{s['ms'] / s['attempts']:,.2f}" if s["attempts"] else "-",
            f"{s['max_ms']:,.2f}",
        ]
        for node, s in doc["per_node"].items()
    ]
    slow_rows = [
        [
            _cell(s["span_id"], "?"),
            _cell(s["outcome"], "?"),
            f"{s['start_ms']:,.2f}",
            f"{s['ms']:,.2f}",
        ]
        for s in doc["slowest"]
    ]
    return "\n\n".join(
        [
            f"fleet: {doc['requests']} request(s), {doc['attempts']} "
            f"attempt(s), {doc['routes']} route decision(s)",
            "== request outcomes ==\n"
            + _table(
                ["outcome", "requests"],
                [[name, str(count)] for name, count in doc["outcomes"].items()],
            ),
            "== per-node attempts ==\n"
            + _table(
                ["node", "attempts", "ok", "failed", "hedged", "wasted",
                 "mean_ms", "max_ms"],
                node_rows,
            ),
            "== router decisions ==\n"
            + _table(
                ["reason", "decisions", "no_replica"],
                [
                    [reason, str(r["decisions"]), str(r["no_replica"])]
                    for reason, r in doc["router"].items()
                ],
            ),
            f"== slowest {len(slow_rows)} requests (span envelope, ms) ==\n"
            + _table(["span_id", "outcome", "start_ms", "ms"], slow_rows),
        ]
    )


def summarize_slo(doc: dict) -> str:
    """Per-(scenario, SLO) budget table and alert list of one SLO document."""
    sections: List[str] = []
    if doc["budgets"]:
        rows = [
            [
                f"{b['scenario']}/{b['slo']}",
                str(b["windows"]),
                f"{b['min_compliance']:.3f}",
                f"{b['peak_burn']:,.1f}",
                f"{b['budget_final']:+.3f}",
                str(b["alerts"]),
            ]
            for b in doc["budgets"]
        ]
        sections.append(
            "== SLO error budgets ==\n"
            + _table(
                ["scenario/SLO", "windows", "min_compliance", "peak_burn",
                 "budget_final", "alerts"],
                rows,
            )
        )
    firing = doc["alerts"]
    if firing:
        rows = [
            [
                str(a.get("scenario", "")),
                str(a.get("name", "")),
                str(a.get("source", "")),
                f"{float(a.get('t_ms', 0.0)):,.1f}",
                _cell(a.get("node"), "-"),
            ]
            for a in firing
        ]
        sections.append(
            f"== alerts fired ({len(firing)}) ==\n"
            + _table(["scenario", "alert", "source", "t_ms", "node"], rows)
        )
    else:
        sections.append("alerts: none fired")
    return "\n\n".join(sections)


def summarize_critpath(doc: dict) -> str:
    """Profile + what-if tables of one critpath document (log or computed)."""
    sections = [
        f"conservation: {rec.get('requests', 0)} request(s), "
        f"{rec.get('violations', 0)} violation(s)"
        for rec in doc["conservation"]
    ]
    if doc["profiles"]:
        rows = []
        for prof in doc["profiles"]:
            total = float(prof.get("total_ms", 0.0)) or 1.0
            # The column shows the three longest segments.
            breakdown = " ".join(
                f"{kind}={dur:,.1f}({100.0 * dur / total:.0f}%)"
                for kind, dur in list(prof["segments"].items())[:3]
            )
            rows.append(
                [
                    f"{prof.get('scenario', '')}/{prof.get('scope', '?')}",
                    str(prof.get("requests", 0)),
                    f"{float(prof.get('total_ms', 0.0)):,.1f}",
                    str(prof.get("bottleneck") or "-"),
                    breakdown,
                ]
            )
        sections.append(
            "== critical-path profiles (where does the time go) ==\n"
            + _table(
                ["scenario/scope", "requests", "total_ms", "bottleneck",
                 "top segments (ms, share)"],
                rows,
            )
        )
    if doc["whatif"]:
        rows = []
        for rec in doc["whatif"]:
            actual = rec.get("actual")
            predicted = float(rec.get("predicted", 0.0))
            delta = (
                f"{100.0 * (predicted - float(actual)) / float(actual):+.1f}%"
                if actual
                else "-"
            )
            bounds = rec.get("within_bounds")
            rows.append(
                [
                    f"{rec.get('scenario', '')}/{rec.get('knob', '?')}",
                    f"{float(rec.get('value', 0.0)):g}",
                    f"{float(rec.get('baseline', 0.0)):,.2f}",
                    f"{predicted:,.2f}",
                    "-" if actual is None else f"{float(actual):,.2f}",
                    delta,
                    "-" if bounds is None else str(bool(bounds)),
                    "yes" if rec.get("estimated") else "no",
                ]
            )
        sections.append(
            "== what-if predictions (p99, ms) ==\n"
            + _table(
                ["scenario/knob", "value", "baseline", "predicted",
                 "actual", "delta", "in_bounds", "estimated"],
                rows,
            )
        )
    if not sections:
        sections.append("critpath: no critpath_profile or whatif records")
    return "\n\n".join(sections)


# -- CLI ----------------------------------------------------------------------


def _line_errors(
    records: List[dict], schema: dict, defs: Dict[str, str], first_line: int = 1
) -> List[str]:
    """Schema violations of JSONL records, each prefixed by its line number.

    ``defs`` maps a record ``kind`` to its ``$defs`` name (``"*"``: every
    kind); records of any other kind are out of contract.
    """
    errors = []
    for i, rec in enumerate(records):
        def_name = defs.get(str(rec.get("kind")), defs.get("*"))
        if def_name is not None:
            errors.extend(
                f"line {i + first_line}: {err}"
                for err in validate_def(rec, schema, def_name)
            )
    return errors


def _schema_verdict(path: Path, errors: List[str], as_json: bool) -> bool:
    """Print one file's schema verdict; False when it has violations.

    In json mode "schema OK" goes to stderr so stdout stays one parseable
    document.
    """
    if errors:
        print(f"{path}: {len(errors)} schema violation(s):", file=sys.stderr)
        for err in errors[:20]:
            print(f"  {err}", file=sys.stderr)
        return False
    print(f"{path}: schema OK", file=sys.stderr if as_json else sys.stdout)
    return True


def main(argv: Optional[List[str]] = None) -> int:
    """CLI main; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="trace_report",
        description="Summarize repro.obs traces, metrics, and request logs.",
    )
    parser.add_argument(
        "trace", type=Path, nargs="?", default=None,
        help="Chrome-trace JSON from --trace (optional with any other input)",
    )
    parser.add_argument(
        "--metrics", type=Path, default=None, help="metrics JSONL from --metrics"
    )
    parser.add_argument(
        "--requests", type=Path, default=None, metavar="FILE",
        help="request-log JSONL from --request-log: print slowest-N "
        "timelines and the SLA-miss attribution table",
    )
    parser.add_argument(
        "--slo", type=Path, default=None, metavar="FILE",
        help="SLO log JSONL from --slo-log: print per-SLO budget/alert "
        "summaries (with --validate, check every line against "
        "$defs.slo_state / $defs.alert_event)",
    )
    parser.add_argument(
        "--fleet", action="store_true",
        help="also print the fleet view of a cluster trace: per-node "
        "attempt/outcome tables, router decision counts, and the "
        "slowest request span envelopes",
    )
    parser.add_argument(
        "--critpath", action="store_true",
        help="with --requests: extract every request's critical path, "
        "check the conservation invariant, and print the per-scope "
        "attribution profiles",
    )
    parser.add_argument(
        "--critpath-log", type=Path, default=None, metavar="FILE",
        help="critpath log JSONL from --critpath-log: print the "
        "attribution profiles and what-if prediction table (with "
        "--validate, check every line against $defs.critpath_record / "
        "$defs.whatif_record)",
    )
    parser.add_argument(
        "--top", type=int, default=10, metavar="N", help="rows per table (default 10)"
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format: human tables (text, default) or one "
        "machine-readable JSON document covering every requested view",
    )
    parser.add_argument(
        "--validate", action="store_true",
        help=f"validate artifacts against {SCHEMA_PATH.name}; exit 1 on violations",
    )
    args = parser.parse_args(argv)
    inputs = (args.trace, args.metrics, args.requests, args.slo, args.critpath_log)
    if all(path is None for path in inputs):
        parser.error(
            "give a trace file, --metrics FILE, --requests FILE, --slo FILE, "
            "--critpath-log FILE, or any mix"
        )
    if args.critpath and args.requests is None:
        parser.error("--critpath needs --requests FILE")
    if args.fleet and args.trace is None:
        parser.error("--fleet needs a trace file")
    if args.top < 1:
        parser.error(f"--top must be at least 1, got {args.top}")

    schema = json.loads(SCHEMA_PATH.read_text()) if args.validate else None
    as_json = args.format == "json"
    # (document key, view document, text formatter), in report order.
    views: List[tuple] = []

    if args.trace is not None:
        trace = load_trace(args.trace)
        if schema is not None and not _schema_verdict(
            args.trace, validate(trace, schema), as_json
        ):
            return 1
        views.append(("trace", trace_data(trace, args.top), summarize))
        if args.fleet:
            views.append(("fleet", fleet_data(trace, args.top), summarize_fleet))

    if args.metrics is not None:
        views.append(
            (
                "metrics",
                load_jsonl(args.metrics),
                lambda records: summarize_metrics(metrics_data(records)),
            )
        )

    if args.requests is not None:
        meta, records = load_request_log(args.requests)
        # Line 1 is the meta line.
        if schema is not None and not _schema_verdict(
            args.requests,
            _line_errors(records, schema, {"*": "request_event"}, first_line=2),
            as_json,
        ):
            return 1
        views.append(
            ("requests", requests_data(meta, records, args.top), summarize_requests)
        )
        if args.critpath:
            views.append(
                (
                    "critpath",
                    critpath_data(critpath_from_requests(records)),
                    summarize_critpath,
                )
            )

    for key, path, defs, view_data, render in (
        ("slo", args.slo, {"slo_state": "slo_state", "alert": "alert_event"},
         slo_data, summarize_slo),
        ("critpath_log", args.critpath_log,
         {"critpath_profile": "critpath_record", "whatif": "whatif_record"},
         critpath_data, summarize_critpath),
    ):
        if path is None:
            continue
        lines = load_jsonl(path)
        if schema is not None and not _schema_verdict(
            path, _line_errors(lines, schema, defs), as_json
        ):
            return 1
        views.append((key, view_data(lines), render))

    if as_json:
        document = {key: doc for key, doc, _ in views}
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print("\n\n".join(render(doc) for _, doc, render in views))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
