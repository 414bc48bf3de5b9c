"""``repro.obs`` — the simulator's VTune: spans, metrics, CPI stacks.

Three pieces, designed to cost nothing when not in use:

* :class:`~repro.obs.tracer.Tracer` — nested spans on a wall-clock track
  and per-run simulated-cycle tracks, exportable as Chrome
  ``chrome://tracing`` JSON or flat JSONL.
* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges, and
  log2-bucket histograms that the memory hierarchy, cores, schedulers,
  and serving loop publish into.
* :mod:`~repro.obs.cpi` — Top-down-style CPI stacks (retire / frontend /
  L1..DRAM-bound) derived from the published counters.

Activation is explicit and scoped (:func:`~repro.obs.hooks.session`)::

    from repro.obs import session, collect_cpi_stacks

    with session() as obs:
        run_experiment("fig13", config=config)
    obs.tracer.to_chrome("trace.json")
    obs.metrics.to_jsonl("metrics.jsonl")
    print(format_cpi_table(collect_cpi_stacks(obs.metrics)))

With no session active every hook in the simulator reduces to one
``is None`` branch at batch granularity — results are bit-identical and
the fast engine's throughput is unaffected (see docs/observability.md).
"""

from .critpath import (
    SEGMENT_KINDS,
    CriticalPath,
    PathTable,
    Segment,
    aggregate_profiles,
    check_conservation,
    extract_critical_path,
    extract_paths,
)
from .detect import (
    CompositionDriftDetector,
    DetectionEvent,
    MeanShiftDetector,
)
from .fleet import FleetSpan, check_span_tree, emit_spans
from .ids import (
    attempt_id,
    request_id,
    route_id,
    slot_id,
)
from .cpi import (
    CPI_BUCKETS,
    CpiStack,
    collect_cpi_stacks,
    dense_cpi_stack,
    embedding_cpi_stack,
    format_cpi_table,
    publish_cpi_stack,
)
from .hooks import Observation, active, enabled, session
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .regress import (
    Benchmark,
    Regression,
    compare,
    load_history,
    make_record,
)
from .requests import (
    RequestLog,
    attribute_miss,
    load_request_log,
    miss_attribution,
)
from .schema import validate, validate_def
from .slo import (
    BurnAlert,
    BurnRule,
    FleetMonitor,
    SLOSpec,
    SloTimeline,
    burn_alerts,
    evaluate_slo,
    score_detections,
)
from .tracer import SIM_PID, WALL_PID, SpanEvent, Tracer
from .whatif import (
    KNOBS,
    WhatIfPrediction,
    predict,
    whatif_record,
    within_bounds,
)

__all__ = [
    "CPI_BUCKETS",
    "Benchmark",
    "BurnAlert",
    "BurnRule",
    "CompositionDriftDetector",
    "Counter",
    "CpiStack",
    "CriticalPath",
    "DetectionEvent",
    "FleetMonitor",
    "FleetSpan",
    "Gauge",
    "Histogram",
    "KNOBS",
    "MeanShiftDetector",
    "MetricsRegistry",
    "Observation",
    "Regression",
    "RequestLog",
    "SEGMENT_KINDS",
    "SIM_PID",
    "SLOSpec",
    "Segment",
    "SloTimeline",
    "SpanEvent",
    "Tracer",
    "WALL_PID",
    "WhatIfPrediction",
    "active",
    "PathTable",
    "aggregate_profiles",
    "attempt_id",
    "attribute_miss",
    "burn_alerts",
    "check_conservation",
    "check_span_tree",
    "collect_cpi_stacks",
    "compare",
    "dense_cpi_stack",
    "embedding_cpi_stack",
    "emit_spans",
    "enabled",
    "evaluate_slo",
    "extract_critical_path",
    "extract_paths",
    "format_cpi_table",
    "load_history",
    "load_request_log",
    "make_record",
    "miss_attribution",
    "predict",
    "publish_cpi_stack",
    "request_id",
    "route_id",
    "score_detections",
    "session",
    "slot_id",
    "validate",
    "validate_def",
    "whatif_record",
    "within_bounds",
]
