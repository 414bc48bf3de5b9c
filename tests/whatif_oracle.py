"""Differential oracle for the what-if engine.

A frozen copy of the record-walking engine that ``repro.obs.whatif``
replaced: every record's events are indexed per gather slot, and each
knob re-times one slot at a time in Python floats.  It shares no code
with the call table, whose column re-timers must match it bit for bit:
baseline, prediction, request count, the estimated flag and every
re-timed latency.
"""

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.obs.critpath import extract_critical_path
from repro.obs.whatif import WhatIfPrediction, percentile


class SlotLog:
    """One gather slot's events (the gather samples shards without
    replacement, so the shard is the slot)."""

    def __init__(self, shard: int) -> None:
        self.shard = shard
        self.calls: List[Tuple[float, int]] = []  # (t, node)
        self.oks: List[Tuple[float, int, Dict[str, object]]] = []
        self.fails: List[float] = []
        self.hedges: List[Tuple[float, int, Optional[float]]] = []  # (t, node, q_ms)

    def resolve(self, arrival: float) -> float:
        if self.oks:
            return self.oks[0][0]
        if self.fails:
            return self.fails[-1]
        return arrival

    def submit_of(self, node: int) -> Optional[float]:
        return next((t for t, n in self.calls if n == node), None)


def index_slots(record: Dict[str, object]) -> Dict[int, SlotLog]:
    slots = {int(s): SlotLog(int(s)) for s in record["shards"]}
    for event in record["events"]:
        if event.get("shard") is None:
            continue
        slot = slots.setdefault(int(event["shard"]), SlotLog(int(event["shard"])))
        kind, t = event["kind"], float(event.get("t_ms", 0.0))
        if kind == "shard_call":
            slot.calls.append((t, int(event["node"])))
        elif kind == "call_ok":
            slot.oks.append((t, int(event["node"]), event))
        elif kind == "call_failed":
            slot.fails.append(t)
        elif kind == "hedge":
            q = event.get("q_ms")
            slot.hedges.append((t, int(event["node"]), None if q is None else float(q)))
    return slots


def _median(values: List[float]) -> Optional[float]:
    if not values:
        return None
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _stats(records):
    """Delivered-attempt durations by shard and by node, and the window
    quantile of every hedge line that logged one."""
    by_shard: Dict[int, List[float]] = {}
    by_node: Dict[int, List[float]] = {}
    qs: List[float] = []
    for rec in records:
        if rec.get("shards") is None:
            continue
        for slot in index_slots(rec).values():
            qs.extend(h[2] for h in slot.hedges if h[2] is not None)
            for t_ok, node, _ in slot.oks:
                submit = slot.submit_of(node)
                if submit is not None:
                    by_shard.setdefault(slot.shard, []).append(t_ok - submit)
                    by_node.setdefault(node, []).append(t_ok - submit)
    return by_shard, by_node, qs


def _fallback(median, overall, config) -> float:
    est = median or overall
    return est if est is not None else 2.0 * config.hop_ms + config.mean_service_ms


def _retime(records, config, adjust, extra_slots=None):
    latencies: List[float] = []
    estimated = False
    for rec in records:
        if rec.get("outcome") == "shed" or rec.get("shards") is None:
            continue
        arrival = float(rec["arrival_ms"])
        slots = index_slots(rec)
        resolves: List[float] = []
        missing = width = 0
        for shard in sorted(slots):
            resolve, is_missing, guessed = adjust(rec, slots[shard])
            if resolve is None and not is_missing:
                continue
            width += 1
            estimated |= guessed
            missing += is_missing
            if resolve is not None:
                resolves.append(resolve)
        for resolve, guessed in extra_slots(rec) if extra_slots else ():
            width += 1
            resolves.append(resolve)
            estimated |= guessed
        if width == 0 or missing >= width or (missing and not config.partial_results):
            continue
        latencies.append(max(resolves) - arrival if resolves else 0.0)
    return latencies, estimated


def _hedge(records, config, new_min_ms):
    old_min = config.hedge.min_ms if config.hedge is not None else None
    max_hedges = config.hedge.max_hedges if config.hedge is not None else 0
    by_shard, _, qs = _stats(records)
    q_estimate = _median(qs)

    def adjust(rec, slot):
        arrival = float(rec["arrival_ms"])
        if not slot.oks:
            return slot.resolve(arrival), True, False
        estimated = False
        candidates = []
        for t_ok, node, _ in slot.oks:
            submit = slot.submit_of(node)
            fired = next(
                (h for h in slot.hedges if h[0] == submit and h[1] == node), None
            )
            arming = max((t for t, _ in slot.calls if t < submit), default=None) \
                if submit is not None else None
            if submit is None or fired is None or arming is None:
                candidates.append(t_ok)
                continue
            q = fired[2] if fired[2] is not None else 0.0
            candidates.append(arming + max(new_min_ms, q) + (t_ok - submit))
        if (
            old_min is not None and new_min_ms < old_min
            and len(slot.hedges) < max_hedges and slot.calls
        ):
            est_dur = _median(by_shard.get(slot.shard, []))
            if est_dur is not None:
                fire = slot.calls[0][0] + max(new_min_ms, q_estimate or 0.0)
                if fire < slot.resolve(arrival):
                    candidates.append(fire + est_dur)
                    estimated = True
        return min(candidates), False, estimated

    return _retime(records, config, adjust)


def _replication(records, config, delta):
    from repro.serving.cluster import ShardMap

    old_map = ShardMap(config).replicas
    new_map = ShardMap(replace(config, replication=config.replication + delta)).replicas
    plan = config.faults
    _, by_node, _ = _stats(records)
    overall = _median([d for durs in by_node.values() for d in durs])

    def adjust(rec, slot):
        fail_t = slot.resolve(float(rec["arrival_ms"]))
        if slot.oks:
            return fail_t, False, False
        for node in new_map[slot.shard]:
            if node in old_map[slot.shard] or plan is not None and (
                plan.node_down(node, fail_t) or plan.partitioned(node, fail_t)
            ):
                continue
            return fail_t + _fallback(_median(by_node.get(node, [])), overall, config), \
                False, True
        return fail_t, True, False

    return _retime(records, config, adjust)


def _gather(records, config, new_width):
    from repro.serving.cluster import ShardMap

    n = max((int(rec["req"]) for rec in records), default=-1) + 1
    new_rows = ShardMap(replace(config, gather_width=new_width)).gather_shards(n)
    by_shard, _, _ = _stats(records)
    overall = _median([d for durs in by_shard.values() for d in durs])
    factor = new_width / float(config.gather_width)

    def adjust(rec, slot):
        if slot.shard not in new_rows[int(rec["req"])]:
            return None, False, False
        if not slot.oks:
            return slot.resolve(float(rec["arrival_ms"])), True, False
        return min(
            t_ok + (float(a["queue_ms"]) * (factor - 1.0) if a.get("queue_ms") is not None
                    else 0.0)
            for t_ok, _, a in slot.oks
        ), False, False

    def extra_slots(rec):
        logged = set(rec["shards"])
        return [
            (float(rec["arrival_ms"])
             + _fallback(_median(by_shard.get(int(s), [])), overall, config), True)
            for s in new_rows[int(rec["req"])] if int(s) not in logged
        ]

    return _retime(records, config, adjust, extra_slots)


def _cat(records, config):
    def adjust(rec, slot):
        if not slot.oks:
            return slot.resolve(float(rec["arrival_ms"])), True, False
        candidates = []
        for t_ok, _, attrs in slot.oks:
            service, slow, queue = (attrs.get(k) for k in ("service_ms", "slow", "queue_ms"))
            penalty = 0.0
            if service is not None and slow:
                penalty += float(service) - float(service) / float(slow)
                if queue is not None and float(slow) > 1.0:
                    penalty += float(queue) * (1.0 - 1.0 / float(slow))
            candidates.append(t_ok - penalty)
        return min(candidates), False, False

    return _retime(records, config, adjust)


def predict(records, config, knob: str, value: float, q: float = 99.0):
    """The engine's prediction over cluster records, walked per record."""
    records = [rec for rec in records if rec.get("shards") is not None]
    if knob == "extra_cores":
        shrink = 1.0 - config.cores_per_node / (config.cores_per_node + value)
        latencies = [
            float(rec["latency_ms"]) - sum(
                s.dur_ms for s in extract_critical_path(rec).segments
                if s.kind == "queue"
            ) * shrink
            for rec in records if rec.get("latency_ms") is not None
        ]
        estimated = True
    elif knob == "hedge_min_ms":
        latencies, estimated = _hedge(records, config, float(value))
    elif knob == "replication_delta":
        latencies, estimated = _replication(records, config, int(value))
    elif knob == "gather_width":
        latencies, estimated = _gather(records, config, int(value))
    else:
        latencies, estimated = _cat(records, config)
    baseline = [float(r["latency_ms"]) for r in records if r.get("latency_ms") is not None]
    return WhatIfPrediction(
        knob=knob, value=float(value), metric=f"p{q:g}_ms",
        baseline=percentile(baseline, q), predicted=percentile(latencies, q),
        requests=len(latencies), estimated=estimated, latencies_ms=latencies,
    )
