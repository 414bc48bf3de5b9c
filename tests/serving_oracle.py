"""Differential oracle for the single-box serving loops.

A frozen copy of the per-event heap loops that ``repro.serving.fastserve``
replaced: the plain path's ``(free time, core id)`` min-heap dispatch, and
the resilient path's single ``(time, kind, seq)`` event heap over core
releases, arrivals and queue timeouts, with a ``deque`` FIFO cancelled
lazily, a heap of idle cores and per-request numpy scalar indexing.  It
shares no loop code with the package, so byte equality between the two
(every ``ServerResult`` array, outcomes, retries, level changes, the
request log and the telemetry exports) is a real check.  Only ``tests/``
imports it.

``simulate(...)`` takes :func:`repro.serving.server.simulate_server`'s
arguments.  It reuses the package's configuration checks
(:class:`ServerSim`), service draws (:func:`lognormal_services`),
:class:`ServerResult` and telemetry publishing (``_finalize``).
:data:`SIMULATORS` maps the differential tests' parameter ids to the
two: ``"fast"`` is the package, ``"reference"`` this oracle.

:class:`SortedWindowController` is the degradation controller's frozen
sorted-window form, the oracle of the package's count-based one.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, insort
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.obs import hooks as obs_hooks
from repro.serving.degradation import DegradationLevel, LevelChange
from repro.serving.faults import FaultPlan
from repro.serving.server import (
    DEFAULT_SERVICE_CV,
    OUTCOME_COMPLETED,
    OUTCOME_SHED,
    OUTCOME_TIMED_OUT,
    ServerResult,
    ServerSim,
    ServingPolicy,
    _finalize,
    lognormal_services,
    simulate_server,
)
from repro.serving.stats import SortedWindow, check_arrivals

__all__ = ["SIMULATORS", "SortedWindowController", "simulate"]

#: Event kinds, ordered so that at equal timestamps core releases precede
#: arrivals and timeouts fire last.
_EV_FREE = 0
_EV_ARRIVE = 1
_EV_TIMEOUT = 2


def simulate(
    arrivals_ms: np.ndarray,
    mean_service_ms: float,
    num_cores: int,
    rng: np.random.Generator,
    service_cv: float = DEFAULT_SERVICE_CV,
    fault_plan: Optional[FaultPlan] = None,
    policy: Optional[ServingPolicy] = None,
    controller=None,
    label: Optional[str] = None,
) -> ServerResult:
    """The FIFO M/G/c simulation, one heap event at a time."""
    sim = ServerSim(
        mean_service_ms=mean_service_ms, num_cores=num_cores,
        service_cv=service_cv, fault_plan=fault_plan, policy=policy,
        controller=controller, label=label,
    )
    check_arrivals(arrivals_ms)
    if sim.is_plain:
        return _plain(arrivals_ms, sim, rng)
    return _resilient(
        arrivals_ms, sim, rng,
        fault_plan if fault_plan is not None else FaultPlan(),
        policy if policy is not None else ServingPolicy(),
    )


SIMULATORS = {"fast": simulate_server, "reference": simulate}


def _offered_interarrival(arrivals: np.ndarray) -> float:
    return float(np.mean(np.diff(arrivals))) if arrivals.size > 1 else 0.0


def _start_run(sim: ServerSim, deadline_ms: Optional[float] = None):
    obs = obs_hooks.active()
    if obs is None or obs.requests is None:
        return None
    return obs.requests.start_run(label=sim.label, deadline_ms=deadline_ms)


def _tracer():
    obs = obs_hooks.active()
    return obs.tracer if obs is not None else None


def _plain(arrivals: np.ndarray, sim: ServerSim, rng) -> ServerResult:
    n = arrivals.size
    services = lognormal_services(sim.mean_service_ms, n, rng, cv=sim.service_cv)
    # FIFO dispatch = assign each request to the earliest-free core; the
    # core id only breaks ties between equally free cores.
    cores = [(0.0, c) for c in range(sim.num_cores)]
    heapq.heapify(cores)
    starts = np.empty(n)
    core_ids = np.empty(n, dtype=np.int64)
    for i in range(n):
        free_at, core = heapq.heappop(cores)
        start = max(arrivals[i], free_at)
        starts[i] = start
        core_ids[i] = core
        heapq.heappush(cores, (start + services[i], core))
    completions = starts + services
    result = ServerResult(
        latencies_ms=completions - arrivals,
        waits_ms=starts - arrivals,
        services_ms=services,
        num_cores=sim.num_cores,
        offered_interarrival_ms=_offered_interarrival(arrivals),
        core_ids=core_ids,
    )
    run = _start_run(sim)
    if run is not None:
        run.finish_fast(arrivals, starts, services, core_ids, tracer=_tracer())
    _finalize(result, run=run)
    return result


def _resilient(
    arrivals_ms: np.ndarray,
    sim: ServerSim,
    rng,
    plan: FaultPlan,
    policy: ServingPolicy,
) -> ServerResult:
    controller = sim.controller
    num_cores = sim.num_cores
    arrivals, injected = plan.inject_arrivals(arrivals_ms)
    n = arrivals.size
    base_services = lognormal_services(
        sim.mean_service_ms, n, rng, cv=sim.service_cv
    )
    strag = plan.straggler_multipliers(n)
    base_services = base_services * strag
    jitter_rng = plan.retry_jitter_stream()
    run = _start_run(sim, policy.deadline_ms)

    deadline = (
        arrivals + policy.deadline_ms if policy.deadline_ms is not None else None
    )
    outcome = np.full(n, -1, dtype=np.int64)
    retry_count = np.zeros(n, dtype=np.int64)
    in_queue = np.zeros(n, dtype=bool)
    started = np.zeros(n, dtype=bool)
    starts = np.zeros(n)
    services = np.zeros(n)
    core_of = np.full(n, -1, dtype=np.int64)
    # Per request, the fault multiplier it was dispatched under and its
    # index into the (level, scheme, scale) of each dispatch.
    fault_of = [1.0] * n
    ctl_of = [0] * n
    ctl_states: List[tuple] = []

    events: List[tuple] = []  # (time, kind, seq, payload)
    seq = 0

    def push(t: float, kind: int, payload: int) -> None:
        nonlocal seq
        heapq.heappush(events, (t, kind, seq, payload))
        seq += 1

    running: Dict[int, int] = {}  # core -> request currently on it
    idle: List[tuple] = []  # heap of (idle-since, core)
    queue: deque = deque()
    depth = 0  # live queue entries (lazily cancelled ones excluded)

    for core in range(num_cores):
        push(plan.next_available(core, 0.0), _EV_FREE, core)
    for i in range(n):
        push(float(arrivals[i]), _EV_ARRIVE, i)

    def dispatch(now: float) -> None:
        nonlocal depth
        while queue and idle:
            _, core = idle[0]
            if plan.core_down(core, now):
                # Failed while idle: back at the end of its repair window.
                heapq.heappop(idle)
                push(plan.next_available(core, now), _EV_FREE, core)
                continue
            i = queue[0]
            if not in_queue[i]:  # lazily cancelled by a timeout
                queue.popleft()
                continue
            heapq.heappop(idle)
            queue.popleft()
            in_queue[i] = False
            depth -= 1
            started[i] = True
            scale = controller.scale() if controller is not None else 1.0
            fault_mult = plan.service_multiplier(core, now)
            svc = base_services[i] * scale * fault_mult
            starts[i] = now
            services[i] = svc
            core_of[i] = core
            running[core] = i
            fault_of[i] = fault_mult
            ctl_of[i] = len(ctl_states)
            ctl_states.append((
                controller.level if controller is not None else None,
                (
                    controller.ladder[controller.level].name
                    if controller is not None
                    else None
                ),
                scale,
            ))
            push(now + svc, _EV_FREE, core)

    while events:
        now, kind, _, payload = heapq.heappop(events)
        if kind == _EV_FREE:
            core = payload
            finished = running.pop(core, None)
            if finished is not None:
                outcome[finished] = OUTCOME_COMPLETED
                if controller is not None:
                    controller.observe(now, now - float(arrivals[finished]))
            if plan.core_down(core, now):
                push(plan.next_available(core, now), _EV_FREE, core)
            else:
                heapq.heappush(idle, (now, core))
                dispatch(now)
        elif kind == _EV_ARRIVE:
            i = payload
            # A first arrival is implicit in the log's arrival column.
            if run is not None and retry_count[i] > 0:
                run.event(i, "retry_arrive", now, attempt=int(retry_count[i]))
            if policy.shed_expired and deadline is not None and now >= deadline[i]:
                outcome[i] = OUTCOME_TIMED_OUT
                if run is not None:
                    run.event(i, "expired", now)
            elif (
                policy.max_queue_depth is not None
                and depth >= policy.max_queue_depth
            ):
                outcome[i] = OUTCOME_SHED
                if run is not None:
                    run.event(i, "shed", now, depth=depth)
            else:
                in_queue[i] = True
                queue.append(i)
                depth += 1
                if policy.timeout_ms is not None:
                    push(now + policy.timeout_ms, _EV_TIMEOUT, i)
                dispatch(now)
        else:  # _EV_TIMEOUT
            i = payload
            if started[i] or outcome[i] >= 0 or not in_queue[i]:
                continue  # already dispatched or resolved
            in_queue[i] = False  # lazy removal from the FIFO deque
            depth -= 1
            if retry_count[i] < policy.max_retries:
                retry_count[i] += 1
                backoff = policy.retry_backoff_ms * 2.0 ** (retry_count[i] - 1)
                backoff *= 1.0 + policy.retry_jitter * float(jitter_rng.random())
                if run is not None:
                    run.event(
                        i, "timeout_retry", now,
                        attempt=int(retry_count[i]), backoff_ms=float(backoff),
                    )
                push(now + backoff, _EV_ARRIVE, i)
            else:
                outcome[i] = OUTCOME_TIMED_OUT
                if run is not None:
                    run.event(i, "timeout", now)

    completed = outcome == OUTCOME_COMPLETED
    completions = starts + services
    result = ServerResult(
        latencies_ms=(completions - arrivals)[completed],
        waits_ms=(starts - arrivals)[completed],
        services_ms=services[completed],
        num_cores=num_cores,
        offered_interarrival_ms=_offered_interarrival(arrivals),
        core_ids=core_of[completed],
        outcomes=outcome,
        retry_counts=retry_count,
        injected=injected,
        deadline_ms=policy.deadline_ms,
        degradation_events=list(controller.events) if controller is not None else [],
        final_degradation_level=controller.level if controller is not None else 0,
    )
    if run is not None:
        run.dispatch_conditions(fault_of, strag, ctl_of, ctl_states)
        run.finish(
            arrivals=arrivals, injected=injected, outcomes=outcome,
            retry_counts=retry_count, starts=starts, services=services,
            core_of=core_of, plan=plan, tracer=_tracer(),
        )
    _finalize(result, plan=plan, controller=controller, run=run)
    return result


def _p95_terms(n: int) -> Tuple[int, int, float, bool]:
    """numpy's default linear 95th percentile of ``n`` sorted values, as
    ``(lo, hi, weight, from_hi)``: the result is
    ``xs[hi] - (xs[hi] - xs[lo]) * weight`` when ``from_hi``, else
    ``xs[lo] + (xs[hi] - xs[lo]) * weight`` — numpy's virtual index and its
    two-branch lerp (it switches formula at ``t >= 0.5`` to stay
    monotone), so the result is bit-equal to ``np.percentile``."""
    virtual = 0.95 * (n - 1)
    lo = int(virtual)
    gamma = virtual - lo
    hi = lo + 1 if lo + 1 < n else lo
    if gamma >= 0.5:
        return lo, hi, 1.0 - gamma, True
    return lo, hi, gamma, False


class SortedWindowController:
    """Hysteretic p95-vs-SLA feedback controller over a degradation ladder.

    A frozen copy of :class:`repro.serving.degradation.DegradationController`
    as it was before its window became a ring plus two threshold counts:
    every call keeps a bisect-sorted copy of the window and computes the
    p95.  ``tests/test_serving_degradation.py`` holds the package's
    controller to it call by call.

    Parameters
    ----------
    ladder:
        Levels ordered from normal (index 0) to most degraded; each rung's
        ``service_scale`` must not exceed the previous rung's (degrading
        must never slow the server down).
    sla_ms:
        The Table 1 target the windowed p95 is compared against.
    window:
        Number of most recent completed-request latencies considered.
    min_samples:
        Observations required (since the last level change) before any
        decision; the window is cleared on a change so each level is
        judged on its own measurements.
    escalate_margin / recover_margin:
        Hysteresis band: escalate when ``p95 > escalate_margin * sla``,
        recover only when ``p95 < recover_margin * sla``.
    cooldown:
        Extra observations required after a change before stepping back
        toward normal (recovery is deliberately slower than escalation).

    The protocol a serving loop relies on (``docs/serving.md``, "The
    serving loop"): :attr:`level` (and with it
    :meth:`scale`) changes only inside :meth:`observe`, which returns the
    :class:`LevelChange` it made or None.
    :class:`repro.tenants.qos.QoSController` implements the same protocol.
    """

    def __init__(
        self,
        ladder: Sequence[DegradationLevel],
        sla_ms: float,
        window: int = 64,
        min_samples: int = 16,
        escalate_margin: float = 1.0,
        recover_margin: float = 0.6,
        cooldown: int = 64,
    ) -> None:
        if not ladder:
            raise ConfigError("degradation ladder must have at least one level")
        for prev, cur in zip(ladder, ladder[1:]):
            if cur.service_scale > prev.service_scale + 1e-12:
                raise ConfigError(
                    f"ladder level {cur.name!r} is slower than {prev.name!r}; "
                    "degradation must not increase service time"
                )
        if not math.isfinite(sla_ms) or sla_ms <= 0:
            raise ConfigError("SLA must be finite and positive")
        if window <= 0 or min_samples <= 0 or min_samples > window:
            raise ConfigError("need 0 < min_samples <= window")
        if not 0.0 < recover_margin <= escalate_margin:
            raise ConfigError("need 0 < recover_margin <= escalate_margin")
        if cooldown < 0:
            raise ConfigError("cooldown must be non-negative")
        self.ladder: Tuple[DegradationLevel, ...] = tuple(ladder)
        self.sla_ms = float(sla_ms)
        self.window = int(window)
        self.min_samples = int(min_samples)
        self.escalate_margin = float(escalate_margin)
        self.recover_margin = float(recover_margin)
        self.cooldown = int(cooldown)
        self.level = 0
        self.events: List[LevelChange] = []
        self._latencies = SortedWindow(self.window)
        self._since_change = 0
        # What observe() reads on every call: the window's ring and sorted
        # copy (cleared in place, so these stay the window's), the p95
        # terms per window length (None below min_samples), the two
        # thresholds and the top rung.
        self._ring = self._latencies._ring
        self._sorted = self._latencies.sorted
        self._p95_at = [
            _p95_terms(n) if n >= self.min_samples else None
            for n in range(self.window + 1)
        ]
        self._escalate_above = self.sla_ms * self.escalate_margin
        self._recover_below = self.sla_ms * self.recover_margin
        self._top = len(self.ladder) - 1

    @property
    def level_name(self) -> str:
        """Name of the current rung."""
        return self.ladder[self.level].name

    def scale(self) -> float:
        """Service-time multiplier of the current rung."""
        return self.ladder[self.level].service_scale

    def window_p95(self) -> float:
        """p95 of the sliding latency window (0.0 while empty).

        Computed in pure python, bit-equal to numpy's default linear
        percentile (same virtual index, same two-branch lerp), from the
        window's bisect-maintained sorted copy; :meth:`observe` inlines
        the same arithmetic.
        """
        xs = self._latencies.sorted
        if not xs:
            return 0.0
        lo, hi, weight, from_hi = _p95_terms(len(xs))
        a = xs[lo]
        b = xs[hi]
        if from_hi:
            return b - (b - a) * weight
        return a + (b - a) * weight

    def observe(self, now_ms: float, latency_ms: float) -> Optional[LevelChange]:
        """Feed one completed-request latency; maybe change level.

        Returns the :class:`LevelChange` made, or None when the level
        stayed: a serving loop re-reads :attr:`level` and :meth:`scale`
        only after a change.  The window update
        (:meth:`SortedWindow.append`) and :meth:`window_p95` are inlined
        here, bit-equal: this runs once per completed request.
        """
        value = float(latency_ms)
        ring = self._ring
        xs = self._sorted
        n = len(ring)
        if n == self.window:
            del xs[bisect_left(xs, ring.popleft())]
        else:
            n += 1
        ring.append(value)
        insort(xs, value)
        self._since_change += 1
        terms = self._p95_at[n]
        if terms is None:
            return None
        lo, hi, weight, from_hi = terms
        a = xs[lo]
        b = xs[hi]
        if from_hi:
            p95 = b - (b - a) * weight
        else:
            p95 = a + (b - a) * weight
        level = self.level
        if p95 > self._escalate_above and level < self._top:
            return self._change(now_ms, level + 1, p95)
        if (
            p95 < self._recover_below
            and level > 0
            and self._since_change >= self.cooldown
        ):
            return self._change(now_ms, level - 1, p95)
        return None

    def _change(self, now_ms: float, to_level: int, p95: float) -> LevelChange:
        event = LevelChange(
            time_ms=float(now_ms),
            from_level=self.level,
            to_level=to_level,
            window_p95_ms=p95,
        )
        self.events.append(event)
        self.level = to_level
        # Judge the new level on its own measurements.
        self._latencies.clear()
        self._since_change = 0
        return event
