"""Counterfactual what-if engine: re-time logged requests, no re-simulation.

Given one observed cluster run (its call table and the
:class:`~repro.serving.cluster.ClusterConfig` that produced it), predict
what the latency distribution *would have been* under a modified knob —
without running the event loop again.  This is the cheap objective
estimator an autotuner needs: one simulated run costs seconds, a
re-timing pass costs milliseconds, and the predictions are validated
against actual re-runs inside noise-floored bounds
(:func:`within_bounds`) on the pinned ``critpath_observatory``
scenarios.

The engine reads the run's :class:`~repro.obs.critpath.CallTable`, as
the critical path does: each knob's re-timer gives every gather slot a
counterfactual resolve time in column operations, and one fold
(:func:`_retime`) turns slots into per-request latencies.

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

import numpy as np

from ..errors import ConfigError
from .critpath import CALL_REASONS, SEGMENT_KINDS, CallTable, extract_calls

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

_HEDGE = CALL_REASONS.index("hedge")


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
    """Linear-interpolation percentile: ``xs[lo] * (1 - frac) + xs[hi] *
    frac`` over the sorted values.  ``np.percentile`` interpolates with a
    different formula, so the two can differ in the last bits."""
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


def _median(values: List[float]) -> Optional[float]:
    if not values:
        return None
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _attempts(calls: CallTable, config, by: str):
    """Median logged duration of the delivered calls per shard
    (``by="shard"``) or node, and a guess for any key: its median, else
    (falsy) the median over all, else two hops plus a mean service."""
    sent = calls.call_ok & ~np.isnan(calls.call_submit)
    durs = calls.call_end[sent] - calls.call_submit[sent]
    keys = calls.call_node[sent]
    if by == "shard":
        keys = calls.slot_shard[calls.call_slot[sent]]
    medians = {
        key: _median(durs[keys == key].tolist()) for key in np.unique(keys).tolist()
    }
    overall = _median(durs.tolist())

    def guess(key: int) -> float:
        est = medians.get(key) or overall
        return est if est is not None else 2.0 * config.hop_ms + config.mean_service_ms

    return medians, guess


def _earliest(calls: CallTable, times: np.ndarray) -> np.ndarray:
    """Per slot, the earliest of ``times`` over its delivered calls."""
    out = np.full(calls.slot_shard.size, np.inf)
    ok = calls.call_ok
    np.minimum.at(out, calls.call_slot[ok], times[ok])
    return out


def _retime(
    calls: CallTable, config, resolve, missing, kept=None, estimated=None, extra=None
) -> Tuple[List[float], bool]:
    """Per-request latencies from per-slot resolves, in request order,
    and whether any kept slot of an unshed request was ``estimated``.

    Slot ``s`` resolves at ``resolve[s]`` (``missing[s]``: without its
    shard); slots not ``kept`` leave the gather; ``extra`` holds the
    ``(request, resolve)`` columns of estimated slots the log lacks.  A
    request ends at its latest slot (the gather fan-in) and fails when
    every slot, or without ``partial_results`` any, is missing; shed
    requests are skipped.
    """
    n = len(calls)
    live = ~calls.shed
    owner = calls.slot_owner
    on = live[owner] if kept is None else live[owner] & kept
    width = np.bincount(owner[on], minlength=n)
    lost = np.bincount(owner[on & missing], minlength=n)
    latest = np.full(n, -np.inf)
    np.maximum.at(latest, owner[on], resolve[on])
    guessed = estimated is not None and bool(estimated[on].any())
    if extra is not None:
        req, extra_resolve = extra
        width += np.bincount(req[live[req]], minlength=n)
        np.maximum.at(latest, req, extra_resolve)
        guessed = guessed or bool(live[req].any())
    done = live & (width > 0) & (lost < width)
    if not config.partial_results:
        done &= lost == 0
    return (latest - calls.arrival)[done].tolist(), guessed


# -- knob re-timers ------------------------------------------------------------


def _hedge_floor(calls: CallTable, config, value: float):
    """Re-time each slot's delivery race under a different hedge floor:
    a fired hedge now fires at its arming + max(floor, q), its measured
    duration riding along, and the slot resolves at its earliest finish.
    A hedge a lower floor may have added is estimated from the per-shard
    median attempt duration."""
    new_min_ms = float(value)
    resolve, won = calls.slot_resolve, calls.slot_won
    submit, prev = calls.call_submit, calls.call_prev
    hedged = (calls.call_via == _HEDGE) & (prev >= 0)
    shifted = (
        submit[np.maximum(prev, 0)]
        + np.maximum(new_min_ms, np.nan_to_num(calls.call_q))
        + (calls.call_end - submit)
    )
    best = _earliest(calls, np.where(hedged, shifted, calls.call_end))
    estimated = np.zeros(best.size, dtype=bool)
    old = config.hedge
    if old is not None and new_min_ms < old.min_ms:
        medians, _ = _attempts(calls, config, "shard")
        q = _median(calls.hedge_q[~np.isnan(calls.hedge_q)].tolist())
        sent = np.flatnonzero(~np.isnan(submit))
        slots, first = np.unique(calls.call_slot[sent], return_index=True)
        fire = submit[sent[first]] + max(new_min_ms, q or 0.0)
        dur = np.array(
            [medians.get(s, np.nan) for s in calls.slot_shard[slots].tolist()]
        )
        est = won[slots] & (calls.slot_hedges[slots] < old.max_hedges)
        est &= ~np.isnan(dur)
        est &= fire < resolve[slots]
        slots = slots[est]
        best[slots] = np.minimum(best[slots], (fire + dur)[est])
        estimated[slots] = True
    resolve = np.where(won, best, resolve)
    return _retime(calls, config, resolve, ~won, estimated=estimated)


def _replication(calls: CallTable, config, value: float):
    """Rescue missing slots with the extra replicas of ``replication+k``:
    the first extra replica alive at the failure time, estimated to take
    its node's median logged attempt duration."""
    from ..serving.cluster import ShardMap  # lazy: obs must not import serving eagerly

    old_map = ShardMap(config).replicas
    new_map = ShardMap(
        replace(config, replication=config.replication + int(value))
    ).replicas
    plan = config.faults
    _, guess = _attempts(calls, config, "node")
    resolve, missing = calls.slot_resolve, ~calls.slot_won
    estimated = np.zeros(resolve.size, dtype=bool)
    for s in np.flatnonzero(missing).tolist():
        fail_t = resolve[s]
        shard = int(calls.slot_shard[s])
        for node in new_map[shard]:
            if node in old_map[shard] or plan is not None and (
                plan.node_down(node, fail_t) or plan.partitioned(node, fail_t)
            ):
                continue
            resolve[s] = fail_t + guess(node)
            missing[s] = False
            estimated[s] = True
            break
    return _retime(calls, config, resolve, missing, estimated=estimated)


def _gather(calls: CallTable, config, value: float):
    """Exact narrower gather (Gumbel top-k subset), estimated wider one.

    Kept deliveries shift by the first-order load feedback: the per-node
    backlog scales with the fleet-wide call volume, so with the width.
    A shard the log lacks takes its median attempt duration from arrival.
    """
    from ..serving.cluster import ShardMap  # lazy import, as above

    new_width = int(value)
    n = int(calls.req.max()) + 1 if len(calls) else 0
    rows = ShardMap(replace(config, gather_width=new_width)).gather_shards(n)[calls.req]
    owner = calls.slot_owner
    kept = (rows[owner] == calls.slot_shard[:, None]).any(axis=1)
    factor = new_width / float(config.gather_width)
    queue = calls.call_queue
    shifted = calls.call_end + np.where(np.isnan(queue), 0.0, queue * (factor - 1.0))
    won = calls.slot_won
    resolve = np.where(won, _earliest(calls, shifted), calls.slot_resolve)

    span = int(rows.max(initial=calls.slot_shard.max(initial=0))) + 1
    logged = owner[calls.slot_listed] * span + calls.slot_shard[calls.slot_listed]
    req = np.repeat(np.arange(len(calls)), rows.shape[1])
    absent = ~np.isin(req * span + rows.ravel(), logged)
    _, guess = _attempts(calls, config, "shard")
    est = [guess(shard) for shard in rows.ravel()[absent].tolist()]
    extra = (req[absent], calls.arrival[req[absent]] + est)
    return _retime(calls, config, resolve, ~won, kept, extra=extra)


def _extra_cores(calls: CallTable, config, value: float):
    """Scale the critical paths' queue segments by ``cores / (cores + k)``
    — the one knob re-timed from segments rather than slot resolves."""
    paths = extract_calls(calls)
    owner = np.repeat(np.arange(len(paths)), np.diff(paths.seg_ptr))
    queue = paths.seg_kind == SEGMENT_KINDS.index("queue")
    queued = np.bincount(
        owner[queue], weights=paths.seg_dur[queue], minlength=len(paths)
    )
    shrink = 1.0 - config.cores_per_node / (config.cores_per_node + value)
    return (calls.latency - queued * shrink)[~np.isnan(calls.latency)].tolist(), True


def _cat_partition(calls: CallTable, config, value: float):
    """Remove every attempt's slowdown penalty (CAT partition on).

    Two first-order effects per attempt: its own service deflates from
    ``service`` to ``service / slow``, and its on-node queue wait — a
    backlog composed of *other* calls inflated by the same factor —
    deflates by ``1 - 1/slow`` too.  The earliest adjusted finish wins
    the slot back (a formerly-slow primary can beat its hedge again).
    """
    service, queue, slow = calls.call_service, calls.call_queue, calls.call_slow
    slowed = ~np.isnan(service) & ~np.isnan(slow) & (slow != 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        penalty = np.where(slowed, service - service / slow, 0.0)
        queued = slowed & ~np.isnan(queue) & (slow > 1.0)
        penalty = np.where(queued, penalty + queue * (1.0 - 1.0 / slow), penalty)
    won = calls.slot_won
    best = _earliest(calls, calls.call_end - penalty)
    return _retime(calls, config, np.where(won, best, calls.slot_resolve), ~won)


# -- the engine ---------------------------------------------------------------


def predict(
    calls: CallTable,
    config,
    knob: str,
    value: float,
    q: float = 99.0,
) -> WhatIfPrediction:
    """Predict the latency percentile under one knob change.

    ``calls`` is one observed cluster run's
    :class:`~repro.obs.critpath.CallTable` (a live run's
    ``records.lifecycles()``, or ``CallTable.from_records`` of a reloaded
    log); ``config`` the
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
    retime = {
        "hedge_min_ms": _hedge_floor, "replication_delta": _replication,
        "gather_width": _gather, "extra_cores": _extra_cores,
        "cat_partition": _cat_partition,
    }[knob]
    latencies, estimated = retime(calls, config, value)
    return WhatIfPrediction(
        knob=knob,
        value=float(value),
        metric=f"p{q:g}_ms",
        baseline=percentile(calls.latency[~np.isnan(calls.latency)].tolist(), q),
        predicted=percentile(latencies, q),
        requests=len(latencies),
        estimated=estimated,
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

    The prediction is in bounds iff it misses ``actual`` in neither
    direction by more than ``rel_threshold`` of the value it is compared
    with *and* more than the absolute ``noise_floor`` — the verdict of
    :func:`repro.obs.regress.compare` run both ways on a lower-is-better
    benchmark ``name``.
    """
    if noise_floor < 0:
        raise ConfigError("noise floor must be non-negative")
    if not 0.0 < rel_threshold:
        raise ConfigError("relative threshold must be positive")

    def worse(base: float, cand: float) -> bool:
        worse_by = cand - base
        if worse_by <= 0:
            return False
        scale = abs(base)
        delta_frac = worse_by / scale if scale > 0 else float("inf")
        return delta_frac > rel_threshold and worse_by > noise_floor

    actual, predicted = float(actual), float(predicted)
    return not worse(actual, predicted) and not worse(predicted, actual)


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
