"""The serving loops behind :class:`repro.serving.server.ServerSim`.

Both avoid per-request numpy scalar indexing (each ``arr[i]``
materializes a new scalar object) and, where they can, per-event heap
work: waves of numpy work where request order provably cannot change,
plain C-speed float loops where it can.

* :func:`dispatch_plain` — FIFO M/G/c dispatch for the happy path.
  Single-core chains are an exact python-float recurrence; multi-core
  dispatch runs *speculative waves*: the next ``c`` requests are assigned
  to the ``c`` cores in heap order (a stable sort of the free times,
  whose ties keep core-id order, is exactly a ``(free time, core id)``
  min-heap's total order), and the wave is committed only up to the
  first position where a freshly computed completion could overtake a
  later core's free time — the only way a heap could disagree.  Under
  load the full wave commits; when speculation stops paying the
  dispatcher falls back to a python-float heap loop.

* :func:`resilient_events` — the resilient event loop over three merged
  streams instead of one ``(time, kind, seq)`` heap: the static arrivals
  through a pointer into the sorted array, the queue timeouts as a FIFO
  (they fall due in push order), and a heap of only core releases and
  retry arrivals, which stays O(cores + pending retries).  Heap sequence
  numbers follow the single-heap numbering (cores ``0..c-1``, static
  arrivals ``c..c+n-1``, runtime events counting up from ``c+n``), so
  every tie breaks as a single heap breaks it.  Most of a run is quiet:
  a narrow inner loop picks its static arrivals and core releases
  (``docs/serving.md``, "The serving loop").

``tests/serving_oracle.py`` keeps the per-event heap loops these replace
as a frozen oracle; the differential tests (``tests/test_serving_engine.py``,
``tests/test_serving_resilient_fuzz.py``) hold both functions **byte
identical** to it.  Float discipline: every arithmetic operation
(``max``, add, multiply) is performed on IEEE-754 doubles in the oracle's
order, so results are bit-equal — python ``float`` and ``np.float64``
share the representation.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

import numpy as np

from .faults import FaultPlan

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
    """FIFO M/G/c dispatch: each request takes the earliest-free core,
    ties to the lowest core id.

    Returns ``(starts, core_ids)``, byte-identical to a ``(free time,
    core id)`` min-heap loop.
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
    i = 0
    waves = 0
    committed = 0
    while i < n and num_cores >= _WAVE_MIN_CORES:
        # Heap pop order over c cores == ascending (free time, core id):
        # a stable sort breaks free-time ties by index, the core id.
        order = free_t.argsort(kind="stable")
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
            k = m if ok.all() else int(ok.argmin()) + 1
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
        heap = list(zip(free_t.tolist(), range(num_cores)))
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


#: Event kinds, ordered so that at equal timestamps core releases precede
#: arrivals (a core freeing exactly at an arrival serves it, as in
#: :func:`dispatch_plain`) and timeouts fire last (a request that could
#: start now is not expired).  Timeouts never enter the heap; the kind
#: only orders them last at a tie.
_EV_FREE = 0
_EV_ARRIVE = 1
_EV_TIMEOUT = 2

_OUTCOME_COMPLETED = 0
_OUTCOME_SHED = 1
_OUTCOME_TIMED_OUT = 2

_INF = float("inf")
#: Attrs of the logged events that carry none (shared, never mutated).
_NO_ATTRS: dict = {}
#: Dispatched-past queue slots kept before the queue is compacted.
_QUEUE_COMPACT = 4096


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
    """Resilient event loop over three merged event streams.

    Returns ``(outcome, retry_count, starts, services, core_of)`` as numpy
    arrays, byte-identical to a single-heap loop (the oracle's) whose
    ``(time, kind, seq)`` event order it reproduces from:

    * the static arrivals, a pointer into the sorted arrival array;
    * the queue timeouts, a FIFO: every one is ``now + timeout_ms`` with
      ``now`` non-decreasing, so they come due in push order.  The FIFO is
      the queue itself (slot ``k`` times out at ``qtime[k]``) read through
      its own head pointer; a timeout fires only strictly before the other
      streams' next event, because timeouts sort last at a tie;
    * a heap of core releases and retry arrivals, numbered like the
      single heap (cores ``0..c-1``, static arrivals ``c..c+n-1``, runtime
      pushes from ``c+n``), so a static arrival precedes a retry arrival
      at the same time.

    The queue is cancelled lazily (``docs/serving.md``, "Retry
    semantics"): a timeout clears ``in_queue`` and leaves the slot, and a
    retry that re-arrives before the dispatcher passes its old slot takes
    that slot back.

    There is one copy of the dispatch code.  A core that frees while no
    other core idles is handed the first live queue entry directly (a
    push onto the empty idle heap and a pop would pick it).  Unless cores
    can fail, a quiet path picks the common events — static arrivals and
    core releases — with fewer checks and leaves the rest to the general
    path.  Core availability is queried only when the plan has failures.
    A plain :class:`~repro.serving.faults.FaultPlan`'s service multipliers
    are read once per core and steady span (its ``steady_until``); a
    tenant plan's move with its defense step, so it is asked at every
    dispatch.  The degradation controller follows its protocol:
    ``observe`` returns the :class:`~repro.serving.degradation.LevelChange`
    it made or None, and the loop re-reads the level, scale and scheme
    only on a change.  Request-log events go to local columns, and each
    request's dispatch conditions to per-request lists; both are handed to
    the :class:`~repro.obs.requests.RunLog` in one call each at the end.
    """
    n = arrivals.size
    arr_l = arrivals.tolist()
    arr_l.append(_INF)  # the static stream's end
    svc_l = base_services.tolist()
    expire_l = (
        (arrivals + policy.deadline_ms).tolist()
        if policy.shed_expired and policy.deadline_ms is not None
        else None
    )
    timeout_ms = policy.timeout_ms
    max_retries = policy.max_retries
    # At most n requests are ever queued at once.
    depth_cap = (
        policy.max_queue_depth if policy.max_queue_depth is not None else n + 1
    )
    retry_backoff = policy.retry_backoff_ms
    retry_jitter = policy.retry_jitter
    jitter_draw = jitter_rng.random

    plan_active = not plan.is_empty
    can_fail = bool(plan.failures)
    core_down = plan.core_down
    next_available = plan.next_available
    service_multiplier = plan.service_multiplier
    # A plain FaultPlan's multipliers hold between its window edges, so
    # they are read once per core and steady span (a tenant plan's move
    # with its defense step too, so it is asked at every dispatch).
    windows_only = type(plan).service_multiplier is FaultPlan.service_multiplier
    mults = [1.0] * num_cores if plan_active and windows_only else None
    mults_until = -_INF

    outcome = [-1] * n
    retry_count = [0] * n
    in_queue = [False] * n
    starts = [0.0] * n
    services = [0.0] * n
    core_of = [-1] * n
    running = [-1] * num_cores  # core -> request on it

    events: List[tuple] = [
        (next_available(core, 0.0), _EV_FREE, core, core)
        for core in range(num_cores)
    ]
    heapq.heapify(events)
    heap_push = heapq.heappush
    heap_pop = heapq.heappop
    seq = num_cores + n
    sp = 0  # static arrival pointer
    a = arr_l[0]  # its time
    queue: List[int] = []  # FIFO slots, read from qhead (dispatch) ...
    qtime: List[float] = []  # ... and from th (timeout of each slot)
    qlen = 0
    qhead = 0
    th = 0
    tt = _INF  # time of the next timeout
    depth = 0  # live queue entries
    idle: List[tuple] = []  # heap of (idle-since, core)
    hand = -1  # a freed core handed the queue head directly
    req = -1  # an arrival served without queueing when a core idles

    # The controller's (level, scheme, scale), one entry per level; a
    # request's dispatch conditions index it (ctl_k: the current entry).
    ctrl = controller
    if ctrl is not None:
        observe = ctrl.observe
        scale = ctrl.scale()
        ctl_states = [(ctrl.level, ctrl.ladder[ctrl.level].name, scale)]
    else:
        scale = 1.0
        ctl_states = [(None, None, scale)]
    ctl_k = 0

    # A static arrival that would expire on arrival (a deadline lost to
    # rounding) keeps the whole run on the general path, and so do cores
    # that can fail.
    quiet_path = not can_fail and not (
        expire_l is not None and np.any(arrivals + policy.deadline_ms <= arrivals)
    )

    logging = run is not None
    # Request-log columns.  First arrivals are not logged: the log's
    # arrival column holds them.
    ev_req: List[int] = []
    ev_kind: List[str] = []
    ev_t: List[float] = []
    ev_attrs: List[dict] = []
    ev_req_add, ev_kind_add = ev_req.append, ev_kind.append
    ev_t_add, ev_attrs_add = ev_t.append, ev_attrs.append
    # Dispatch conditions, per request (each is dispatched at most once):
    # its fault multiplier and its controller state.
    fault_of = [1.0] * n if logging else None
    ctl_of = [0] * n if logging else None

    while True:
        if quiet_path:
            # The quiet path picks static arrivals and core releases: it
            # idles a released core itself and hands an arrival (`req`) or
            # a core with queued work (`hand`) to the dispatch below.  It
            # leaves any other event — a retry arrival, a timeout, a shed,
            # the end of the run — to the general path.
            while True:
                if events:
                    top = events[0]
                    ht = top[0]
                elif a == _INF:
                    break
                else:
                    ht = _INF
                # At a tie a release goes before a static arrival, a
                # static arrival before a retry arrival.
                if a < ht or (a == ht and top[1]):
                    if tt < a or depth >= depth_cap:
                        break
                    now = a
                    req = sp
                    sp += 1
                    a = arr_l[sp]
                    break
                if tt < ht or top[1]:
                    break
                now, _, _, core = heap_pop(events)
                finished = running[core]
                if finished >= 0:
                    running[core] = -1
                    if (
                        ctrl is not None
                        and observe(now, now - arr_l[finished]) is not None
                    ):
                        scale = ctrl.scale()
                        level = ctrl.level
                        ctl_states.append((level, ctrl.ladder[level].name, scale))
                        ctl_k += 1
                if idle or qhead == qlen:
                    heap_push(idle, (now, core))
                    continue
                hand = core
                break
        if req < 0 and hand < 0:
            # -- the general path: one event of any kind --------------------
            if events:
                top = events[0]
                ht = top[0]
            else:
                ht = _INF
            # At a tie a heap release goes before a static arrival (kind),
            # a static arrival before a heap retry arrival (seq), and a
            # timeout after both (kind): it fires only when strictly first.
            if a < ht or (a == ht and sp < n and top[1]):
                if tt < a:
                    kind = _EV_TIMEOUT
                else:
                    now = a
                    kind = _EV_ARRIVE
                    i = sp
                    sp += 1
                    a = arr_l[sp]
            elif tt < ht:
                kind = _EV_TIMEOUT
            elif events:
                now, kind, _, i = heap_pop(events)
            else:
                # No release pending means every core idles, so nothing is
                # queued: any timeout left (due at +inf) is dead.
                break

            if kind == _EV_FREE:
                core = i
                finished = running[core]
                if finished >= 0:
                    running[core] = -1
                    if (
                        ctrl is not None
                        and observe(now, now - arr_l[finished]) is not None
                    ):
                        scale = ctrl.scale()
                        level = ctrl.level
                        ctl_states.append((level, ctrl.ladder[level].name, scale))
                        ctl_k += 1
                if can_fail and core_down(core, now):
                    heap_push(
                        events, (next_available(core, now), _EV_FREE, seq, core)
                    )
                    seq += 1
                    continue
                if idle:
                    # Cores only idle while no live request is queued.
                    heap_push(idle, (now, core))
                    continue
                # Pushing onto the empty idle heap and popping it again
                # would pick this core: hand it over directly.
                hand = core
            elif kind == _EV_ARRIVE:
                k = retry_count[i]
                if logging and k:
                    ev_req_add(i)
                    ev_kind_add("retry_arrive")
                    ev_t_add(now)
                    ev_attrs_add({"attempt": k})
                if expire_l is not None and now >= expire_l[i]:
                    outcome[i] = _OUTCOME_TIMED_OUT
                    if logging:
                        ev_req_add(i)
                        ev_kind_add("expired")
                        ev_t_add(now)
                        ev_attrs_add(_NO_ATTRS)
                    continue
                if depth >= depth_cap:
                    outcome[i] = _OUTCOME_SHED
                    if logging:
                        ev_req_add(i)
                        ev_kind_add("shed")
                        ev_t_add(now)
                        ev_attrs_add({"depth": depth})
                    continue
                req = i
            else:  # _EV_TIMEOUT
                now = tt
                i = queue[th]
                th += 1
                # A timeout pending for a request no longer queued is dead
                # for good: the request was dispatched (one that timed out
                # has no other pending timeout), so skip such slots now.
                while th < qlen and not in_queue[queue[th]]:
                    th += 1
                tt = qtime[th] if th < qlen else _INF
                if not in_queue[i]:
                    continue
                in_queue[i] = False  # lazy removal: the slot stays
                depth -= 1
                k = retry_count[i]
                if k < max_retries:
                    k += 1
                    retry_count[i] = k
                    backoff = retry_backoff * 2.0 ** (k - 1)
                    backoff *= 1.0 + retry_jitter * float(jitter_draw())
                    if logging:
                        ev_req_add(i)
                        ev_kind_add("timeout_retry")
                        ev_t_add(now)
                        ev_attrs_add(
                            {"attempt": k, "backoff_ms": float(backoff)}
                        )
                    heap_push(events, (now + backoff, _EV_ARRIVE, seq, i))
                    seq += 1
                else:
                    outcome[i] = _OUTCOME_TIMED_OUT
                    if logging:
                        ev_req_add(i)
                        ev_kind_add("timeout")
                        ev_t_add(now)
                        ev_attrs_add(_NO_ATTRS)
                continue

        # -- dispatch: the loop's only copy -----------------------------------
        # Starts the arrival `req`, else queued requests, on the freed core
        # `hand`, else idle cores.  An arrival that finds a core idle finds
        # nothing live queued, so it is served without taking a queue slot
        # (its timeout would be dead on arrival).  The checks keep the
        # oracle's order: queue non-empty, an idle core, core down.
        while req >= 0 or qhead < qlen:
            if hand < 0:
                if not idle:
                    break
                if can_fail:
                    icore = idle[0][1]
                    if core_down(icore, now):
                        # Failed while idle: back at the end of its window.
                        heap_pop(idle)
                        heap_push(
                            events,
                            (next_available(icore, now), _EV_FREE, seq, icore),
                        )
                        seq += 1
                        continue
            if req >= 0:
                i = req
                req = -1
            else:
                i = queue[qhead]
                qhead += 1
                if not in_queue[i]:  # lazily cancelled by a timeout
                    continue
                in_queue[i] = False
                depth -= 1
            if hand < 0:
                icore = heap_pop(idle)[1]
            else:
                icore = hand
                hand = -1
            if mults is not None:
                if now >= mults_until:
                    mults[:] = [
                        service_multiplier(c, now) for c in range(num_cores)
                    ]
                    mults_until = plan.steady_until(now)
                fault_mult = mults[icore]
            elif plan_active:
                fault_mult = service_multiplier(icore, now)
            else:
                fault_mult = 1.0
            svc = svc_l[i] * scale * fault_mult
            starts[i] = now
            services[i] = svc
            core_of[i] = icore
            running[icore] = i
            if logging:
                fault_of[i] = fault_mult
                ctl_of[i] = ctl_k
            heap_push(events, (now + svc, _EV_FREE, seq, icore))
            seq += 1
        if hand >= 0:  # no live request was queued
            heap_push(idle, (now, hand))
            hand = -1
        if req >= 0:  # no core took the arrival: queue it
            if qhead > _QUEUE_COMPACT:
                lo = qhead if timeout_ms is None or qhead < th else th
                if lo > _QUEUE_COMPACT and lo * 2 > qlen:
                    del queue[:lo]
                    qlen -= lo
                    qhead -= lo
                    if timeout_ms is not None:
                        del qtime[:lo]
                        th -= lo
            in_queue[req] = True
            queue.append(req)
            qlen += 1
            depth += 1
            if timeout_ms is not None:
                t = now + timeout_ms
                qtime.append(t)
                if tt == _INF:  # no earlier timeout pending
                    tt = t
            req = -1

    if logging:
        run.extend_events(ev_req, ev_kind, ev_t, ev_attrs)
        run.dispatch_conditions(fault_of, strag, ctl_of, ctl_states)
    outcome = np.array(outcome, dtype=np.int64)
    core_of = np.array(core_of, dtype=np.int64)
    # Every dispatched request completes: the loop drains every release.
    outcome[core_of >= 0] = _OUTCOME_COMPLETED
    return (
        outcome,
        np.array(retry_count, dtype=np.int64),
        np.array(starts),
        np.array(services),
        core_of,
    )
