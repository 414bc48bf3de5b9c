"""Counterfactual what-if engine: re-time logged requests, no re-simulation.

Given one observed cluster run (its request-log records and the
:class:`~repro.serving.cluster.ClusterConfig` that produced it), predict
what the latency distribution *would have been* under a modified knob —
without running the event loop again.  This is the cheap objective
estimator the autotuner needs (ROADMAP item 5): one simulated run costs
seconds, a re-timing pass costs milliseconds, and the predictions are
validated against actual re-runs inside the noise-floored bounds of
:mod:`repro.obs.regress` on the pinned ``critpath_observatory``
scenarios.

Supported knobs (:data:`KNOBS`):

* ``hedge_min_ms`` — a different hedge-delay floor.  Hedges that fired
  are re-timed **exactly**: the logged events give the arming time, the
  fired delay, and the hedge attempt's full duration, so shifting the
  fire time shifts its finish one-for-one, and the slot resolves at the
  earliest finish among its logged attempts.  Slots that never hedged
  but would have under a lower floor are *estimated* from per-shard
  median attempt durations.
* ``replication_delta`` — ``replication + k``.  The counterfactual shard
  map is rebuilt with the real placement code (same seed — placement is
  deterministic), and a slot that went *missing* is rescued by an extra
  replica that was alive at the failure time; its resolve is estimated
  as the failure time plus that node's median logged attempt duration.
* ``gather_width`` — a narrower gather is **exact**: the Gumbel top-k
  gather stream is regenerated bit-for-bit (same seed and hotness), and
  the top-(w-1) shards of a request are a subset of its logged top-w, so
  every kept slot's resolve is already in the log.  A wider gather adds
  estimated slots (per-shard median durations).
* ``extra_cores`` — scales the critical-path queue segments by
  ``cores / (cores + k)`` (an M/M/c-flavored approximation; reported but
  not gated).
* ``cat_partition`` — removes the slowdown ``penalty`` carved out of
  every logged attempt (the CAT partition isolates the noisy neighbor),
  letting a formerly-slow attempt win its slot back.

Every prediction recomputes per-request outcomes (missing-slot counts →
completed/degraded/failed) and reports p99 over the finite latencies,
matching how the acceptance suites score actual re-runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .critpath import _SlotLog, _index_slots, extract_critical_path
from .regress import Benchmark, compare, make_record

__all__ = [
    "KNOBS",
    "WHATIF_SCHEMA_VERSION",
    "WhatIfPrediction",
    "percentile",
    "predict",
    "whatif_record",
    "within_bounds",
]

#: Version stamp of the exported ``whatif`` record shape.
WHATIF_SCHEMA_VERSION = 1

#: Knobs the engine can re-time.
KNOBS = (
    "hedge_min_ms",
    "replication_delta",
    "gather_width",
    "extra_cores",
    "cat_partition",
)


@dataclass
class WhatIfPrediction:
    """One counterfactual's predicted latency outcome."""

    knob: str
    value: float
    metric: str
    baseline: float
    predicted: float
    requests: int
    #: True when any per-slot re-timing fell back to a median estimate
    #: (vs the exact event-shift arithmetic).
    estimated: bool = False
    latencies_ms: List[float] = field(default_factory=list)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (matches ``np.percentile``)."""
    if not values:
        return 0.0
    ordered = sorted(float(v) for v in values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (q / 100.0) * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


# -- shared machinery ---------------------------------------------------------


def _slot_stats(
    records: Sequence[Dict[str, object]],
) -> Tuple[Dict[int, List[float]], Dict[int, List[float]], List[float]]:
    """Logged ok-attempt durations, keyed by shard and by node, and the
    window quantile of every fired hedge that logged one.

    Each record's slot index lives only while its record is read:
    holding every index until the fold would make the collector scan
    them all, which costs more than indexing a record again.
    """
    by_shard: Dict[int, List[float]] = {}
    by_node: Dict[int, List[float]] = {}
    qs: List[float] = []
    for rec in records:
        if rec.get("shards") is None:
            continue
        for slot in _index_slots(rec).values():
            qs.extend(h[2] for h in slot.hedges if h[2] is not None)
            for t_ok, node, _ in slot.oks:
                submit = slot.submit_of(node)
                if submit is None:
                    continue
                dur = t_ok - submit
                by_shard.setdefault(slot.shard, []).append(dur)
                by_node.setdefault(node, []).append(dur)
    return by_shard, by_node, qs


def _median(values: List[float]) -> Optional[float]:
    if not values:
        return None
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _median_by_key(groups: Dict[int, List[float]]):
    """``key -> _median(groups.get(key, []))``, each key sorted once.

    Sound because ``_slot_stats``' lists are not mutated after it
    returns.
    """
    medians: Dict[int, Optional[float]] = {}

    def median(key: int) -> Optional[float]:
        if key not in medians:
            medians[key] = _median(groups.get(key, []))
        return medians[key]

    return median


class _Retimer:
    """Folds per-slot counterfactual resolves into per-request latencies.

    A slot adjuster maps ``(record, slot)`` to ``(resolve_ms, missing,
    estimated)``, a resolve of None with ``missing`` False dropping the
    slot from the gather; ``extra_slots`` maps a record to the
    ``(resolve_ms, estimated)`` of slots the log does not hold, which
    join after the logged ones.  The retimer recomputes each request's
    end (the max slot resolve — the gather fan-in), its counterfactual
    outcome from the missing count, and the finite-latency set the p99 is
    scored on.
    """

    def __init__(self, config) -> None:
        self.config = config
        self.estimated = False

    def run(
        self, records: Sequence[Dict[str, object]], adjust, extra_slots=None
    ) -> List[float]:
        latencies: List[float] = []
        for rec in records:
            if rec.get("outcome") == "shed" or rec.get("shards") is None:
                continue
            arrival = float(rec["arrival_ms"])
            slots = _index_slots(rec)
            resolves: List[float] = []
            missing = 0
            width = 0
            for shard in sorted(slots):
                resolve, is_missing, estimated = adjust(rec, slots[shard])
                if resolve is None and not is_missing:
                    continue  # dropped: not part of the gather
                width += 1
                if estimated:
                    self.estimated = True
                if is_missing:
                    missing += 1
                if resolve is not None:
                    resolves.append(resolve)
            if extra_slots is not None:
                for resolve, estimated in extra_slots(rec):
                    width += 1
                    resolves.append(resolve)
                    if estimated:
                        self.estimated = True
            if width == 0:
                continue
            if missing >= width or (
                missing > 0 and not self.config.partial_results
            ):
                continue  # failed: no finite latency
            latencies.append(max(resolves) - arrival if resolves else 0.0)
        return latencies


# -- knob adjusters -----------------------------------------------------------


def _hedge_adjuster(
    config,
    new_min_ms: float,
    dur_by_shard: Dict[int, List[float]],
    q_estimate: Optional[float],
):
    """Re-time each slot's delivery race under a different hedge floor."""
    old_min = config.hedge.min_ms if config.hedge is not None else None
    max_hedges = config.hedge.max_hedges if config.hedge is not None else 0
    shard_median = _median_by_key(dur_by_shard)

    def adjust(rec, slot):
        arrival = float(rec["arrival_ms"])
        if not slot.oks:
            return slot.resolve(arrival), True, False
        estimated = False
        candidates: List[float] = []
        for t_ok, node, attrs in slot.oks:
            submit = slot.submit_of(node)
            if submit is None:
                candidates.append(t_ok)
                continue
            fired = next(
                (h for h in slot.hedges if h[0] == submit and h[1] == node),
                None,
            )
            if fired is None:
                candidates.append(t_ok)  # not a hedge: unchanged
                continue
            # Exact shift: the hedge armed when the previous attempt went
            # out; under the new floor it fires at arming + max(floor, q)
            # and its measured duration rides along unchanged.
            arming = max(
                (t for t, _, _ in slot.calls if t < submit), default=None
            )
            if arming is None:
                candidates.append(t_ok)
                continue
            q = fired[2] if fired[2] is not None else 0.0
            candidates.append(arming + max(new_min_ms, q) + (t_ok - submit))
        if (
            old_min is not None
            and new_min_ms < old_min
            and len(slot.hedges) < max_hedges
            and slot.calls
        ):
            # No hedge fired here, but a lower floor may have armed one
            # that beats the logged resolve: estimate its finish from the
            # per-shard median attempt duration.
            est_dur = shard_median(slot.shard)
            if est_dur is not None:
                first = slot.calls[0][0]
                fire = first + max(new_min_ms, q_estimate or 0.0)
                if fire < slot.resolve(arrival):
                    candidates.append(fire + est_dur)
                    estimated = True
        return min(candidates), False, estimated

    return adjust


def _replication_adjuster(
    config, delta: int, dur_by_node: Dict[int, List[float]]
):
    """Rescue missing slots with the extra replicas of ``replication+k``."""
    from ..serving.cluster import ShardMap  # lazy: obs must not import serving eagerly

    old_map = ShardMap(config).replicas
    new_map = ShardMap(replace(config, replication=config.replication + delta)).replicas
    plan = config.faults
    node_median = _median_by_key(dur_by_node)
    global_median = _median([d for durs in dur_by_node.values() for d in durs])

    def adjust(rec, slot):
        arrival = float(rec["arrival_ms"])
        if slot.oks:
            return slot.resolve(arrival), False, False
        fail_t = slot.resolve(arrival)
        extras = [
            n for n in new_map[slot.shard] if n not in old_map[slot.shard]
        ]
        for node in extras:
            if plan is not None and (
                plan.node_down(node, fail_t) or plan.partitioned(node, fail_t)
            ):
                continue
            est = node_median(node) or global_median
            if est is None:
                est = 2.0 * config.hop_ms + config.mean_service_ms
            return fail_t + est, False, True
        return fail_t, True, False  # extras were down too: still missing

    return adjust


def _gather_adjuster(
    config,
    new_width: int,
    records: Sequence[Dict[str, object]],
    dur_by_shard: Dict[int, List[float]],
):
    """Exact narrower gather (Gumbel top-k subset), estimated wider one."""
    from ..serving.cluster import ShardMap  # lazy import, as above

    n = max((int(rec["req"]) for rec in records), default=-1) + 1
    new_rows = ShardMap(replace(config, gather_width=new_width)).gather_shards(n)
    shard_median = _median_by_key(dur_by_shard)
    global_median = _median([d for durs in dur_by_shard.values() for d in durs])
    # First-order load feedback: the per-node backlog is proportional to
    # the fleet-wide call volume, which scales with the gather width.
    queue_factor = new_width / float(config.gather_width)

    def adjust(rec, slot):
        arrival = float(rec["arrival_ms"])
        kept = new_rows[int(rec["req"])]
        if slot.shard not in kept:
            return None, False, False  # dropped from the gather entirely
        if not slot.oks:
            return slot.resolve(arrival), True, False
        candidates = []
        for t_ok, _node, attrs in slot.oks:
            queue = attrs.get("queue_ms")
            shift = (
                float(queue) * (queue_factor - 1.0)
                if queue is not None
                else 0.0
            )
            candidates.append(t_ok + shift)
        return min(candidates), False, False

    def extra_slots(rec) -> List[Tuple[float, bool]]:
        """(resolve, estimated) of counterfactual slots absent from the log."""
        arrival = float(rec["arrival_ms"])
        logged = set(rec.get("shards", []))
        out = []
        for shard in new_rows[int(rec["req"])]:
            if int(shard) in logged:
                continue
            est = shard_median(int(shard)) or global_median
            if est is None:
                est = 2.0 * config.hop_ms + config.mean_service_ms
            out.append((arrival + est, True))
        return out

    return adjust, extra_slots


def _cat_adjuster(config):
    """Remove every attempt's slowdown penalty (CAT partition on).

    Two first-order effects per attempt: its own service deflates from
    ``service`` to ``service / slow``, and its on-node queue wait — a
    backlog composed of *other* calls inflated by the same factor —
    deflates by ``1 - 1/slow`` too.  The earliest adjusted finish wins
    the slot back (a formerly-slow primary can beat its hedge again).
    """

    def adjust(rec, slot):
        arrival = float(rec["arrival_ms"])
        if not slot.oks:
            return slot.resolve(arrival), True, False
        candidates = []
        for t_ok, node, attrs in slot.oks:
            service = attrs.get("service_ms")
            slow = attrs.get("slow")
            queue = attrs.get("queue_ms")
            penalty = 0.0
            if service is not None and slow:
                penalty += float(service) - float(service) / float(slow)
                if queue is not None and float(slow) > 1.0:
                    penalty += float(queue) * (1.0 - 1.0 / float(slow))
            candidates.append(t_ok - penalty)
        return min(candidates), False, False

    return adjust


# -- the engine ---------------------------------------------------------------


def predict(
    records: Sequence[Dict[str, object]],
    config,
    knob: str,
    value: float,
    q: float = 99.0,
) -> WhatIfPrediction:
    """Predict the latency percentile under one knob change.

    ``records`` is one observed cluster run's request log; ``config`` the
    :class:`~repro.serving.cluster.ClusterConfig` that produced it (never
    mutated).  ``value`` is knob-specific: the new floor for
    ``hedge_min_ms``, the replica delta for ``replication_delta``, the
    new width for ``gather_width``, the added cores for ``extra_cores``,
    ignored for ``cat_partition``.  Pure re-timing: deterministic, no
    event loop, no RNG draws beyond regenerating the (seeded, identical)
    gather stream.
    """
    if knob not in KNOBS:
        raise ValueError(f"unknown what-if knob {knob!r}; known: {KNOBS}")
    baseline = [
        float(rec["latency_ms"])
        for rec in records
        if rec.get("latency_ms") is not None
    ]
    retimer = _Retimer(config)
    if knob == "extra_cores":
        # Queue scaling over the extracted critical path — the one knob
        # re-timed from segments rather than slot resolves.
        shrink = 1.0 - config.cores_per_node / (config.cores_per_node + value)
        latencies = []
        for rec in records:
            if rec.get("latency_ms") is None:
                continue
            path = extract_critical_path(rec)
            queued = sum(
                s.dur_ms for s in path.segments if s.kind == "queue"
            )
            latencies.append(float(rec["latency_ms"]) - queued * shrink)
        retimer.estimated = True
    else:
        extra_slots = None
        if knob == "gather_width":
            dur_by_shard, _, _ = _slot_stats(records)
            adjust, extra_slots = _gather_adjuster(
                config, int(value), records, dur_by_shard
            )
        elif knob == "hedge_min_ms":
            dur_by_shard, _, qs = _slot_stats(records)
            adjust = _hedge_adjuster(
                config, float(value), dur_by_shard, _median(qs)
            )
        elif knob == "replication_delta":
            _, dur_by_node, _ = _slot_stats(records)
            adjust = _replication_adjuster(config, int(value), dur_by_node)
        else:  # cat_partition
            adjust = _cat_adjuster(config)
        latencies = retimer.run(records, adjust, extra_slots)
    return WhatIfPrediction(
        knob=knob,
        value=float(value),
        metric=f"p{q:g}_ms",
        baseline=percentile(baseline, q),
        predicted=percentile(latencies, q),
        requests=len(latencies),
        estimated=retimer.estimated,
        latencies_ms=latencies,
    )


# -- validation + export ------------------------------------------------------


def within_bounds(
    name: str,
    actual: float,
    predicted: float,
    rel_threshold: float = 0.25,
    noise_floor: float = 0.0,
) -> bool:
    """Two-sided noise-floored check that a prediction matches reality.

    Builds single-benchmark records and runs :func:`repro.obs.regress.
    compare` in both directions: the prediction is in bounds iff neither
    direction flags a regression — i.e. |predicted - actual| is within
    ``rel_threshold`` of the actual *or* under the absolute noise floor.
    """

    def record(value: float) -> Dict[str, object]:
        return make_record(
            mode="whatif",
            repeats=1,
            benchmarks=[
                Benchmark(
                    name, value, "ms", direction="lower",
                    noise_floor=noise_floor, kind="sim",
                )
            ],
            timestamp="-",  # deterministic: no wall clock in validation
        )

    base, cand = record(actual), record(predicted)
    return not compare(base, cand, rel_threshold) and not compare(
        cand, base, rel_threshold
    )


def whatif_record(
    prediction: WhatIfPrediction,
    scenario: str = "",
    actual: Optional[float] = None,
    in_bounds: Optional[bool] = None,
) -> Dict[str, object]:
    """One schema-valid ``whatif`` JSONL record (``$defs.whatif_record``)."""
    return {
        "kind": "whatif",
        "schema_version": WHATIF_SCHEMA_VERSION,
        "scenario": scenario,
        "knob": prediction.knob,
        "value": prediction.value,
        "metric": prediction.metric,
        "baseline": prediction.baseline,
        "predicted": prediction.predicted,
        "actual": actual,
        "within_bounds": in_bounds,
        "requests": prediction.requests,
        "estimated": prediction.estimated,
    }
