"""Critical-path observatory — latency attribution and what-if validation.

``slo_observatory`` grades whether the telemetry pipeline *notices*
faults; this experiment grades whether it can *explain* them and
*predict* the fix.  Two pinned cluster scenarios are replayed with full
request logging:

* **node_kill** — an unreplicated striped cluster loses a node mid-run;
  every lookup on its shards must fail over, so the tail's critical path
  is dominated by ``recovery`` time.
* **noisy** — a replicated, hedged cluster has one node slowed 6x by a
  noisy neighbor; the tail splits between the slowdown ``penalty`` and
  the ``hedge_wait`` the rescue hedges sat out.

For every logged request the critical path is extracted
(:mod:`repro.obs.critpath`) and the **conservation invariant** is
checked: the chronological segments must sum *exactly* (float sim-ms)
to the end-to-end latency.  Aggregated profiles ("where does p99 go")
are reported per scope and exported as schema-valid
``critpath_profile`` records.

Then the counterfactual engine (:mod:`repro.obs.whatif`) re-times the
logged runs under modified knobs — replication+1 and a narrower gather
on the node-kill scenario, a lower hedge floor and a CAT partition on
the noisy scenario — and every prediction is validated against an
**actual re-simulation** of the modified config, using the two-sided
noise-floored bounds of :mod:`repro.obs.regress`.  ``extra_cores`` is
reported as an estimate only (no gating re-run).

Fault windows and cluster seeds are pinned (the scenarios double as the
what-if accuracy regression suite); arrivals come from the experiment
config's seeded stream.  Everything is simulated-time only, so rows are
byte-stable across hosts and ``--jobs``.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from ..config import SimConfig
from ..obs.critpath import (
    CallTable,
    aggregate_profiles,
    check_conservation,
    extract_calls,
)
from ..obs.whatif import percentile, predict, whatif_record, within_bounds
from ..serving.cluster import ClusterConfig, ClusterSim
from ..serving.faults import ClusterFaultPlan, NodeCrash, NodeSlow
from ..serving.router import HedgePolicy
from .base import ExperimentReport, logged_cluster_run

EXPERIMENT_ID = "critpath_observatory"
TITLE = "Critical-path attribution and counterfactual what-if prediction"
PAPER_REFERENCE = "fig17 tail latency; Table 1 SLAs — explaining where p99 goes"

#: Knobs whose predictions are gated against an actual re-run
#: (``extra_cores`` is estimate-only and never gated).
GATED_KNOBS = ("replication_delta", "gather_width", "hedge_min_ms", "cat_partition")


def _scenarios(
    horizon_ms: float,
    mean_service_ms: float,
    num_nodes: int,
    cores_per_node: int,
    num_shards: int,
) -> List[Tuple[str, ClusterConfig, List[Tuple[str, float, Optional[ClusterConfig]]]]]:
    """The two pinned scenarios and their knob/actual-config lists.

    Seeds are fixed (77 / 78): these runs are the pinned what-if
    accuracy suite, so their dynamics must not drift when the outer
    experiment config changes.
    """
    base = dict(
        num_nodes=num_nodes,
        cores_per_node=cores_per_node,
        mean_service_ms=mean_service_ms,
        num_shards=num_shards,
        gather_width=2,
        hop_ms=0.1,
        deadline_ms=100.0,
        placement="striped",
        routing="least_loaded",
    )
    kill = ClusterConfig(
        replication=1,
        call_timeout_ms=25.0,
        faults=ClusterFaultPlan(
            [NodeCrash(1, 0.11 * horizon_ms, 0.27 * horizon_ms)], seed=77
        ),
        seed=77,
        label="critpath:node_kill",
        **base,
    )
    noisy = ClusterConfig(
        replication=2,
        call_timeout_ms=50.0,
        hedge=HedgePolicy(quantile=95.0, min_ms=12.0, window=128),
        faults=ClusterFaultPlan(
            [NodeSlow(0, 0.13 * horizon_ms, 0.40 * horizon_ms, factor=6.0)],
            seed=78,
        ),
        seed=78,
        label="critpath:noisy",
        **base,
    )
    return [
        (
            "node_kill",
            kill,
            [
                ("replication_delta", 1.0, replace(kill, replication=2)),
                ("gather_width", 1.0, replace(kill, gather_width=1)),
                ("extra_cores", 4.0, None),
            ],
        ),
        (
            "noisy",
            noisy,
            [
                (
                    "hedge_min_ms",
                    6.0,
                    replace(
                        noisy,
                        hedge=HedgePolicy(quantile=95.0, min_ms=6.0, window=128),
                    ),
                ),
                (
                    "cat_partition",
                    0.0,
                    replace(noisy, faults=ClusterFaultPlan([], seed=78)),
                ),
                ("extra_cores", 4.0, None),
            ],
        ),
    ]


def run(
    config: Optional[SimConfig] = None,
    num_requests: int = 10000,
    mean_interarrival_ms: float = 0.9,
    mean_service_ms: float = 2.0,
    num_nodes: int = 4,
    cores_per_node: int = 4,
    num_shards: int = 8,
    tail_quantile: float = 99.0,
    rel_threshold: float = 0.25,
    noise_frac: float = 0.15,
    critpath_log: Optional[str] = None,
) -> ExperimentReport:
    """Attribute every request's latency, then predict the knob fixes.

    ``rel_threshold`` / ``noise_frac`` set the prediction-accuracy gate
    (relative bound plus ``noise_frac * actual`` absolute floor);
    ``critpath_log`` optionally writes every profile and what-if record
    as schema-valid JSONL (validated in CI against
    ``$defs.critpath_record`` / ``$defs.whatif_record``).
    """
    config = config or SimConfig()
    report = ExperimentReport(
        experiment_id=EXPERIMENT_ID, title=TITLE, paper_reference=PAPER_REFERENCE
    )
    arrivals = config.rng("critpath:arrivals").exponential(
        mean_interarrival_ms, size=num_requests
    ).cumsum()
    horizon_ms = num_requests * mean_interarrival_ms

    log_lines: List[Dict[str, object]] = []
    conserved_ok = True
    gates_ok = True
    scenarios = _scenarios(
        horizon_ms, mean_service_ms, num_nodes, cores_per_node, num_shards
    )
    for scenario, cluster_cfg, knobs in scenarios:
        _result, records = logged_cluster_run(ClusterSim(cluster_cfg), arrivals)
        calls = CallTable.from_records(records)
        paths = extract_calls(calls)

        violations = sum(1 for p in paths if check_conservation(p) != 0.0)
        other_ms = sum(
            seg.dur_ms for p in paths for seg in p.segments if seg.kind == "other"
        )
        total_ms = sum(p.total_ms for p in paths)
        if violations:
            conserved_ok = False
        report.rows.append(
            {
                "scenario": scenario,
                "kind": "conservation",
                "requests": len(paths),
                "violations": violations,
                "total_ms": total_ms,
                "other_ms": other_ms,
                "other_frac": other_ms / total_ms if total_ms else 0.0,
            }
        )

        profiles = aggregate_profiles(
            paths, scenario=scenario, tail_quantile=tail_quantile
        )
        log_lines.extend(profiles)
        for prof in profiles:
            scope = str(prof["scope"])
            if not (scope == "overall" or scope.startswith("tail_")):
                continue  # node/shard scopes go to the log, not the table
            segments: Dict[str, float] = prof["segments"]  # type: ignore[assignment]
            top = prof["bottleneck"]
            top_ms = segments.get(str(top), 0.0) if top else 0.0
            report.rows.append(
                {
                    "scenario": scenario,
                    "kind": "profile",
                    "scope": scope,
                    "requests": prof["requests"],
                    "total_ms": prof["total_ms"],
                    "bottleneck": top,
                    "bottleneck_ms": top_ms,
                    "bottleneck_frac": (
                        top_ms / float(prof["total_ms"]) if prof["total_ms"] else 0.0
                    ),
                }
            )

        for knob, value, actual_cfg in knobs:
            prediction = predict(calls, cluster_cfg, knob, value, q=tail_quantile)
            actual: Optional[float] = None
            in_bounds: Optional[bool] = None
            if actual_cfg is not None:
                _, actual_records = logged_cluster_run(
                    ClusterSim(actual_cfg), arrivals
                )
                actual = percentile(
                    [
                        float(r["latency_ms"])
                        for r in actual_records
                        if r.get("latency_ms") is not None
                    ],
                    tail_quantile,
                )
                in_bounds = within_bounds(
                    f"{scenario}.{knob}",
                    actual,
                    prediction.predicted,
                    rel_threshold,
                    noise_frac * actual,
                )
                if knob in GATED_KNOBS and not in_bounds:
                    gates_ok = False
            report.rows.append(
                {
                    "scenario": scenario,
                    "kind": "whatif",
                    "knob": knob,
                    "value": value,
                    "baseline": prediction.baseline,
                    "predicted": prediction.predicted,
                    "actual": actual,
                    "delta_frac": (
                        (prediction.predicted - actual) / actual
                        if actual
                        else None
                    ),
                    "within_bounds": in_bounds,
                    "estimated": prediction.estimated,
                }
            )
            log_lines.append(
                whatif_record(
                    prediction, scenario=scenario, actual=actual, in_bounds=in_bounds
                )
            )

    if critpath_log is not None:
        with open(critpath_log, "w") as fh:
            fh.write(
                json.dumps(
                    {
                        "kind": "critpath_log_meta",
                        "schema_version": 1,
                        "scenarios": [name for name, _, _ in scenarios],
                        "lines": len(log_lines),
                    }
                )
                + "\n"
            )
            for line in log_lines:
                fh.write(json.dumps(line) + "\n")

    report.notes.append(
        f"{num_nodes} nodes x {cores_per_node} cores, {num_shards} shards, "
        f"{num_requests} requests at {mean_interarrival_ms:.2f} ms mean "
        f"interarrival; pinned fault scenarios (seeds 77/78); what-if gate "
        f"rel {rel_threshold:.2f} + noise floor {noise_frac:.2f}x actual "
        f"at p{tail_quantile:g}"
    )
    if conserved_ok:
        report.notes.append(
            "conservation: every request's critical-path segments sum "
            "exactly (float sim-ms) to its end-to-end latency"
        )
    if gates_ok:
        report.notes.append(
            "headline: every gated what-if prediction (replication+1, "
            "narrower gather, lower hedge floor, CAT partition) matched "
            "its actual re-run within the noise-floored bounds"
        )
    return report
