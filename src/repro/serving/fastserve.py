"""Batched serving engine — the "fast" counterpart of the event loops.

The reference serving paths in :mod:`repro.serving.server` spend their
time in per-request Python work: heap operations against an O(n)
event heap and numpy scalar indexing (each ``arr[i]`` materializes a new
scalar object).  This module vectorizes the same computations the way
:class:`repro.mem.fastcache.FastCache` batched the memory hierarchy —
waves of numpy work where request order provably cannot change, plain
C-speed float loops where it can — while producing **byte-identical**
results (enforced by the differential tests in
``tests/test_serving_engine.py``):

* :func:`dispatch_plain` — FIFO M/G/c dispatch for the happy path.
  Single-core chains are an exact python-float recurrence; multi-core
  dispatch runs *speculative waves*: the next ``c`` requests are assigned
  to the ``c`` cores in heap order (``lexsort`` over ``(free, core)`` is
  exactly the heap's total order), and the wave is committed only up to
  the first position where a freshly computed completion could overtake a
  later core's free time — the only way the real heap could disagree.
  Under load the full wave commits; when speculation stops paying the
  dispatcher falls back to a python-float heap loop (still well ahead of
  numpy scalar indexing).

* :func:`resilient_events` — the resilient event loop with the O(n)
  static arrival schedule *merged* instead of heaped: arrivals enter the
  event stream through a sorted-array pointer while only dynamic events
  (core releases, timeouts, retries) live in the heap, which stays
  O(cores + queued timeouts).  Event sequence numbers replicate the
  reference numbering (cores ``0..c-1``, static arrivals ``c..c+n-1``,
  runtime events counting up from ``c+n``) so every tie breaks the same
  way.

Float discipline: every arithmetic operation (``max``, add, multiply)
is performed on IEEE-754 doubles in the same order as the reference
loop, so results are bit-equal — python ``float`` and ``np.float64``
share the representation.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["dispatch_plain", "resilient_events"]

#: Stop speculating when fewer than 2 requests commit per wave on average.
_WAVE_MIN_PAYOFF = 2
#: Waves to observe before judging speculation efficiency.
_WAVE_PROBATION = 16
#: Below this core count a wave is too small to amortize its ~10 numpy
#: dispatches; the python-float heap loop wins outright.
_WAVE_MIN_CORES = 16


def dispatch_plain(
    arrivals_ms: np.ndarray, services: np.ndarray, num_cores: int
) -> Tuple[np.ndarray, np.ndarray]:
    """FIFO M/G/c dispatch; byte-identical to the reference heap loop.

    Returns ``(starts, core_ids)`` exactly as the loop in
    ``_simulate_fast`` would have produced them.
    """
    n = arrivals_ms.size
    starts = np.empty(n)
    core_ids = np.empty(n, dtype=np.int64)
    if num_cores == 1:
        # start_i = max(arrival_i, completion_{i-1}) is a pure chain; run
        # it over python floats (bit-equal IEEE doubles, ~10x cheaper per
        # step than heap + numpy scalar indexing).
        starts_l: List[float] = []
        append = starts_l.append
        free = 0.0
        for a, s in zip(arrivals_ms.tolist(), services.tolist()):
            if free < a:
                free = a
            append(free)
            free += s
        starts[:] = starts_l
        core_ids.fill(0)
        return starts, core_ids

    free_t = np.zeros(num_cores)
    free_c = np.arange(num_cores, dtype=np.int64)
    i = 0
    waves = 0
    committed = 0
    while i < n and num_cores >= _WAVE_MIN_CORES:
        # Heap pop order over c cores == ascending (free time, core id).
        order = np.lexsort((free_c, free_t))
        m = min(num_cores, n - i)
        ft = free_t[order[:m]]
        st = np.maximum(arrivals_ms[i : i + m], ft)
        comp = st + services[i : i + m]
        if m > 1:
            # Dispatch k is speculative: the real heap would hand it the
            # k-th earliest core only if no completion pushed by
            # dispatches 0..k-1 beats that core's free time (strictly —
            # an equal time would tie-break on core id, so it commits
            # only the unambiguous prefix).
            ok = np.minimum.accumulate(comp[: m - 1]) > ft[1:]
            k = m if ok.all() else int(np.argmin(ok)) + 1
        else:
            k = 1
        sel = order[:k]
        starts[i : i + k] = st[:k]
        core_ids[i : i + k] = sel
        free_t[sel] = comp[:k]
        i += k
        waves += 1
        committed += k
        if waves >= _WAVE_PROBATION and committed < _WAVE_MIN_PAYOFF * waves:
            break
    if i < n:
        # Speculation is not paying (light/bursty load): finish with a
        # python-float heap seeded from the current core state.
        heap = list(zip(free_t.tolist(), free_c.tolist()))
        heapq.heapify(heap)
        pop, push = heapq.heappop, heapq.heappush
        st_l: List[float] = []
        id_l: List[int] = []
        st_append, id_append = st_l.append, id_l.append
        arr_l = arrivals_ms[i:].tolist()
        svc_l = services[i:].tolist()
        for a, s in zip(arr_l, svc_l):
            free_at, core = pop(heap)
            start = a if a > free_at else free_at
            st_append(start)
            id_append(core)
            push(heap, (start + s, core))
        starts[i:] = st_l
        core_ids[i:] = id_l
    return starts, core_ids


#: Event kinds, mirrored from the server module (import cycle avoidance).
_EV_FREE = 0
_EV_ARRIVE = 1
_EV_TIMEOUT = 2

_OUTCOME_COMPLETED = 0
_OUTCOME_SHED = 1
_OUTCOME_TIMED_OUT = 2


def resilient_events(
    arrivals: np.ndarray,
    base_services: np.ndarray,
    strag: np.ndarray,
    num_cores: int,
    plan,
    policy,
    controller,
    jitter_rng: np.random.Generator,
    run,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Resilient event loop over python floats and a dynamic-only heap.

    Returns ``(outcome, retry_count, starts, services, core_of)`` as numpy
    arrays, byte-identical to the reference ``_simulate_resilient`` loop.
    The static arrival schedule is consumed through a pointer into the
    (already sorted) arrival array; only dynamic events are heaped.
    """
    n = arrivals.size
    arr_l = arrivals.tolist()
    svc_l = base_services.tolist()
    strag_l = strag.tolist()
    deadline_l = (
        (arrivals + policy.deadline_ms).tolist()
        if policy.deadline_ms is not None
        else None
    )
    timeout_ms = policy.timeout_ms
    max_retries = policy.max_retries
    max_depth = policy.max_queue_depth
    shed_expired = policy.shed_expired
    retry_backoff = policy.retry_backoff_ms
    retry_jitter = policy.retry_jitter
    jitter_draw = jitter_rng.random

    plan_active = not plan.is_empty
    core_down = plan.core_down
    next_available = plan.next_available
    service_multiplier = plan.service_multiplier

    outcome = [-1] * n
    retry_count = [0] * n
    in_queue = [False] * n
    started = [False] * n
    starts = [0.0] * n
    services = [0.0] * n
    core_of = [-1] * n

    # Reference seq numbering: FREE(core) get 0..c-1, static arrivals
    # c..c+n-1, runtime pushes count up from c+n.
    events: List[tuple] = [
        (next_available(core, 0.0), _EV_FREE, core, core)
        for core in range(num_cores)
    ]
    heapq.heapify(events)
    heap_push = heapq.heappush
    heap_pop = heapq.heappop
    seq = num_cores + n
    sp = 0  # static arrival pointer
    next_static: Optional[tuple] = (
        (arr_l[0], _EV_ARRIVE, num_cores, 0) if n else None
    )

    running = {}  # core -> request currently on it
    idle: List[tuple] = []  # heap of (idle-since, core)
    queue = []  # FIFO via head index (amortized O(1) popleft)
    qhead = 0
    depth = 0
    ctrl = controller
    logging = run is not None

    while events or next_static is not None:
        if next_static is not None and (
            not events or next_static < events[0]
        ):
            now, kind, _, payload = next_static
            sp += 1
            next_static = (
                (arr_l[sp], _EV_ARRIVE, num_cores + sp, sp) if sp < n else None
            )
        else:
            now, kind, _, payload = heap_pop(events)
        if kind == _EV_FREE:
            core = payload
            finished = running.pop(core, None)
            if finished is not None:
                outcome[finished] = _OUTCOME_COMPLETED
                if ctrl is not None:
                    ctrl.observe(now, now - arr_l[finished])
            if plan_active and core_down(core, now):
                heap_push(events, (next_available(core, now), _EV_FREE, seq, core))
                seq += 1
            else:
                heap_push(idle, (now, core))
                # -- dispatch (inlined: the loop's single hot call) ------
                while qhead < len(queue) and idle:
                    _, icore = idle[0]
                    if plan_active and core_down(icore, now):
                        heap_pop(idle)
                        heap_push(
                            events,
                            (next_available(icore, now), _EV_FREE, seq, icore),
                        )
                        seq += 1
                        continue
                    i = queue[qhead]
                    if not in_queue[i]:  # lazily cancelled by a timeout
                        qhead += 1
                        continue
                    heap_pop(idle)
                    qhead += 1
                    in_queue[i] = False
                    depth -= 1
                    started[i] = True
                    scale = ctrl.scale() if ctrl is not None else 1.0
                    fault_mult = (
                        service_multiplier(icore, now) if plan_active else 1.0
                    )
                    svc = svc_l[i] * scale * fault_mult
                    starts[i] = now
                    services[i] = svc
                    core_of[i] = icore
                    running[icore] = i
                    if logging:
                        level = ctrl.level if ctrl is not None else None
                        run.dispatched(
                            i, level,
                            ctrl.ladder[level].name if ctrl is not None else None,
                            fault_mult, strag_l[i], scale,
                        )
                    heap_push(events, (now + svc, _EV_FREE, seq, icore))
                    seq += 1
        elif kind == _EV_ARRIVE:
            i = payload
            if logging:
                if retry_count[i] > 0:
                    run.event(i, "retry_arrive", now, attempt=int(retry_count[i]))
                else:
                    run.event(i, "arrive", now)
            if shed_expired and deadline_l is not None and now >= deadline_l[i]:
                outcome[i] = _OUTCOME_TIMED_OUT
                if logging:
                    run.event(i, "expired", now)
            elif max_depth is not None and depth >= max_depth:
                outcome[i] = _OUTCOME_SHED
                if logging:
                    run.event(i, "shed", now, depth=depth)
            else:
                in_queue[i] = True
                queue.append(i)
                depth += 1
                if timeout_ms is not None:
                    heap_push(events, (now + timeout_ms, _EV_TIMEOUT, seq, i))
                    seq += 1
                if idle:
                    # -- dispatch (same inlined loop) --------------------
                    while qhead < len(queue) and idle:
                        _, icore = idle[0]
                        if plan_active and core_down(icore, now):
                            heap_pop(idle)
                            heap_push(
                                events,
                                (
                                    next_available(icore, now),
                                    _EV_FREE,
                                    seq,
                                    icore,
                                ),
                            )
                            seq += 1
                            continue
                        j = queue[qhead]
                        if not in_queue[j]:
                            qhead += 1
                            continue
                        heap_pop(idle)
                        qhead += 1
                        in_queue[j] = False
                        depth -= 1
                        started[j] = True
                        scale = ctrl.scale() if ctrl is not None else 1.0
                        fault_mult = (
                            service_multiplier(icore, now) if plan_active else 1.0
                        )
                        svc = svc_l[j] * scale * fault_mult
                        starts[j] = now
                        services[j] = svc
                        core_of[j] = icore
                        running[icore] = j
                        if logging:
                            level = ctrl.level if ctrl is not None else None
                            run.dispatched(
                                j, level,
                                ctrl.ladder[level].name if ctrl is not None else None,
                                fault_mult, strag_l[j], scale,
                            )
                        heap_push(events, (now + svc, _EV_FREE, seq, icore))
                        seq += 1
        else:  # _EV_TIMEOUT
            i = payload
            if started[i] or outcome[i] >= 0 or not in_queue[i]:
                continue
            in_queue[i] = False
            depth -= 1
            if retry_count[i] < max_retries:
                retry_count[i] += 1
                backoff = retry_backoff * 2.0 ** (retry_count[i] - 1)
                backoff *= 1.0 + retry_jitter * float(jitter_draw())
                if logging:
                    run.event(
                        i,
                        "timeout_retry",
                        now,
                        attempt=int(retry_count[i]),
                        backoff_ms=float(backoff),
                    )
                heap_push(events, (now + backoff, _EV_ARRIVE, seq, i))
                seq += 1
            else:
                outcome[i] = _OUTCOME_TIMED_OUT
                if logging:
                    run.event(i, "timeout", now)
        if qhead > 4096 and qhead * 2 > len(queue):
            del queue[:qhead]
            qhead = 0

    return (
        np.array(outcome, dtype=np.int64),
        np.array(retry_count, dtype=np.int64),
        np.array(starts),
        np.array(services),
        np.array(core_of, dtype=np.int64),
    )
