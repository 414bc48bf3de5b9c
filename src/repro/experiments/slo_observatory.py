"""SLO observatory — scored fault detection over the resilient cluster.

``cluster_resilience`` shows the fleet *surviving* node faults; this
experiment asks whether the observatory *notices* them.  It replays the
same fault scenarios (none / node kill / chaos) through the same
replicated, hedged cluster configuration, but instead of grading
latency percentiles it grades the telemetry pipeline end to end:

1. every run is request-logged (the cluster's distributed tracing and
   ``call_ok``/``call_failed`` per-node telemetry feed the log);
2. declarative SLOs (:mod:`repro.obs.slo`) are evaluated over rolling
   windows — a tail-latency SLO pinned at 2x the no-fault p99, an
   availability SLO, and the paper-grade full-quality SLA objective —
   with error-budget accounting and multi-window burn-rate alerts;
3. per-node drift detectors (:mod:`repro.obs.detect`) watch each node's
   windowed error rate and mean call latency;
4. the fired alerts are correlated against the
   :class:`repro.serving.faults.ClusterFaultPlan` ground truth, and the
   report scores **detection precision, per-fault-class recall, and
   mean time-to-detect** — the numbers that make "the observatory
   works" falsifiable.

The acceptance bar (locked by ``tests/test_experiments_slo.py``): every
injected NodeCrash/NodePartition/NodeSlow window is detected with
precision >= 0.9 and finite MTTD, the error budget burns during fault
windows and recovers after, and the quiet scenario stays quiet.

Degradation controllers are left off so the per-node service process is
stationary outside the injected faults — the detectors grade the fault
response, not the control loop's own adaptation.  Everything is seeded
and simulated-time-only, so rows are byte-stable across hosts and
``--jobs``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from ..config import SimConfig
from ..core.schemes import evaluate_scheme
from ..cpu.platform import get_platform
from ..obs.slo import (
    FleetMonitor,
    SLOSpec,
    alert_record,
    burn_alerts,
    burn_summary,
    evaluate_slo,
    node_window_stats,
    score_detections,
    slo_state_records,
)
from ..serving.cluster import ClusterConfig, ClusterSim
from ..serving.router import HedgePolicy
from ..serving.sla import sla_for_model
from ..serving.workload import poisson_arrivals
from .base import ExperimentReport, logged_cluster_run
from .cluster_resilience import _scenarios
from .workloads import build_workload

EXPERIMENT_ID = "slo_observatory"
TITLE = "SLO burn and fault detection scored against ground truth"
PAPER_REFERENCE = "Table 1 SLAs; fleet observability for at-scale serving"

#: Detector warmup (in windows) before alerts may fire; fault windows
#: start at >= 20% of the horizon, well past it.
_WARMUP_WINDOWS = 8

#: Detection grace: an alert within this many windows after a fault
#: window closes still credits it (resolution lags the repair).
_GRACE_WINDOWS = 2


def run(
    config: Optional[SimConfig] = None,
    model: str = "rm1",
    dataset: str = "low",
    platform: str = "csl",
    num_nodes: int = 4,
    cores_per_node: int = 4,
    replication: int = 2,
    num_shards: int = 8,
    gather_width: int = 2,
    scale: float = 0.02,
    batch_size: int = 16,
    num_batches: int = 2,
    num_requests: int = 20000,
    detailed_cores: int = 2,
    offered_load: float = 0.55,
    hop_ms: float = 0.1,
    window_count: int = 80,
    slo_log: Optional[str] = None,
) -> ExperimentReport:
    """Replay the cluster fault scenarios and score the observatory.

    ``window_count`` sets the SLO/detector window resolution (windows =
    horizon / count); ``slo_log`` optionally writes every windowed SLO
    state and every alert as schema-valid JSONL (the CI smoke validates
    it against ``$defs.slo_state`` / ``$defs.alert_event``).
    """
    config = config or SimConfig()
    spec = get_platform(platform)
    report = ExperimentReport(
        experiment_id=EXPERIMENT_ID, title=TITLE, paper_reference=PAPER_REFERENCE
    )
    wl = build_workload(
        model, dataset, scale=scale, batch_size=batch_size,
        num_batches=num_batches, config=config,
    )
    sla = sla_for_model(wl.model)
    base_ms = evaluate_scheme(
        "baseline", wl.model, wl.trace, wl.amap, spec,
        num_cores=cores_per_node, detailed_cores=detailed_cores,
    ).batch_ms
    call_ms = base_ms / gather_width
    total_cores = num_nodes * cores_per_node
    interarrival_ms = base_ms / (total_cores * offered_load)
    horizon_ms = num_requests * interarrival_ms
    arrivals = poisson_arrivals(
        interarrival_ms, num_requests, config.rng("cluster:arrivals")
    )
    call_timeout_ms = max(4.0 * call_ms, sla.sla_ms / 4.0)
    hedge = HedgePolicy(
        quantile=95.0, min_ms=max(1.0, 3.0 * call_ms), window=128, max_hedges=1
    )
    window_ms = horizon_ms / window_count
    grace_ms = _GRACE_WINDOWS * window_ms
    repl = max(1, min(replication, num_nodes))

    def simulate(scenario: str, plan):
        """One request-logged cluster run and its records."""
        cluster = ClusterSim(
            ClusterConfig(
                num_nodes=num_nodes,
                cores_per_node=cores_per_node,
                mean_service_ms=call_ms,
                num_shards=num_shards,
                replication=repl,
                gather_width=gather_width,
                hop_ms=hop_ms,
                call_timeout_ms=call_timeout_ms,
                deadline_ms=sla.sla_ms,
                max_outstanding=50 * total_cores,
                placement="hotness",
                routing="least_loaded",
                hedge=hedge,
                faults=plan,
                seed=config.seed,
                label=f"slo:{scenario}",
            )
        )
        return logged_cluster_run(cluster, arrivals)

    # Baseline pass pins the tail SLO threshold at 2x the no-fault p99:
    # tight enough that fault-window queueing burns budget, loose enough
    # that healthy jitter does not.
    scenarios = _scenarios(horizon_ms, num_nodes, config.seed)
    base_result, _ = simulate("baseline", None)
    tail_ms = 2.0 * base_result.percentile(99.0)
    specs = [
        SLOSpec("latency_tail", "latency", 0.99, threshold_ms=tail_ms),
        SLOSpec("availability", "availability", 0.999),
        SLOSpec("quality_sla", "quality", 0.95, threshold_ms=sla.sla_ms),
    ]

    log_lines: List[Dict[str, object]] = []
    detect_ok = True
    burn_shown = False
    for scenario, plan in scenarios:
        result, records = simulate(scenario, plan)
        fault_windows = plan.windows() if plan is not None else []

        slo_alert_count = 0
        burn_in_tail = 0.0
        burn_out_tail = 0.0
        for slo in specs:
            timeline = evaluate_slo(slo, records, window_ms, horizon_ms)
            alerts = burn_alerts(timeline)
            fired = sum(1 for a in alerts if a.firing)
            slo_alert_count += fired
            burn = burn_summary(timeline, fault_windows, grace_ms)
            if slo.name == "latency_tail":
                burn_in_tail = burn["burn_in"]
                burn_out_tail = burn["burn_out"]
            report.rows.append(
                {
                    "scenario": scenario,
                    "kind": "slo",
                    "name": slo.name,
                    "objective": slo.objective,
                    "compliance": timeline.compliance,
                    "budget_final": burn["budget_final"],
                    "burn_in": burn["burn_in"],
                    "burn_out": burn["burn_out"],
                    "alerts": fired,
                }
            )
            log_lines.extend(slo_state_records(timeline, scenario))
            log_lines.extend(alert_record(a, scenario) for a in alerts)

        monitor = FleetMonitor(num_nodes, warmup=_WARMUP_WINDOWS)
        events = monitor.run(
            node_window_stats(records, window_ms, horizon_ms), window_ms
        )
        log_lines.extend(alert_record(e, scenario) for e in events)
        score = score_detections(events, fault_windows, grace_ms)
        for cls, entry in score["classes"].items():  # type: ignore[union-attr]
            report.rows.append(
                {
                    "scenario": scenario,
                    "kind": "detection",
                    "name": cls,
                    "windows": entry["windows"],
                    "detected": entry["detected"],
                    "recall": entry["recall"],
                    "mttd_ms": entry["mttd_ms"],
                    "precision": score["precision"],
                    "alerts": score["alerts_fired"],
                }
            )
        report.rows.append(
            {
                "scenario": scenario,
                "kind": "summary",
                "name": "all",
                "windows": score["windows_total"],
                "detected": score["windows_detected"],
                "recall": score["recall"],
                "mttd_ms": score["mttd_ms"],
                "precision": score["precision"],
                "alerts": score["alerts_fired"] + slo_alert_count,
                "completed": result.outcome_count("completed"),
                "degraded": result.outcome_count("degraded"),
                "failed": result.outcome_count("failed"),
                "burn_in": burn_in_tail,
                "burn_out": burn_out_tail,
            }
        )
        if fault_windows:
            if (
                score["windows_detected"] < score["windows_total"]
                or score["precision"] < 0.9
                or score["mttd_ms"] is None
            ):
                detect_ok = False
            if burn_in_tail > max(1.0, 2.0 * burn_out_tail):
                burn_shown = True

    if slo_log is not None:
        with open(slo_log, "w") as fh:
            fh.write(
                json.dumps(
                    {
                        "kind": "slo_log_meta",
                        "schema_version": 1,
                        "window_ms": window_ms,
                        "scenarios": [name for name, _ in scenarios],
                        "lines": len(log_lines),
                    }
                )
                + "\n"
            )
            for line in log_lines:
                fh.write(json.dumps(line) + "\n")

    report.notes.append(
        f"{num_nodes} nodes x {cores_per_node} cores, replication {repl}, "
        f"least_loaded + hedging, offered load {offered_load:.2f}; "
        f"{window_count} windows of {window_ms:.1f} ms; tail SLO "
        f"{tail_ms:.2f} ms (2x no-fault p99), quality SLA {sla.sla_ms:.0f} ms"
    )
    report.notes.append(
        "detection: per-node mean-shift detectors on windowed error rate "
        "and ok-call latency; precision counts alerts outside every "
        "ground-truth fault window (+grace) as false positives; MTTD = "
        "first on-node alert minus fault start"
    )
    if detect_ok:
        report.notes.append(
            "headline: every injected fault window detected "
            f"(precision >= 0.9, grace {_GRACE_WINDOWS} windows)"
            + (
                "; tail error budget burns inside fault windows and "
                "recovers outside"
                if burn_shown
                else ""
            )
        )
    return report
