"""Discrete-event multi-core inference server (M/G/c queueing).

Each batch is a quantum of work mapped onto one core (Section 6's
execution model).  Requests queue FIFO; a free core picks the head of the
queue; service time is drawn from a lognormal around the scheme's mean
batch latency (real inference latency has a mild right tail from cache
state and OS noise).

Two paths share that model, both run by :mod:`repro.serving.fastserve`:

* the **plain path** — vectorized service draws and FIFO dispatch, taken
  when no fault plan, policy, or degradation controller is given; its
  results are byte-identical to the pre-resilience simulator;
* the **resilient path** — an event-driven loop (arrivals, core releases,
  timeouts) that additionally supports per-request deadlines from the
  Table 1 SLAs, queue-timeout + retry with exponential backoff and seeded
  jitter, queue-depth / expired-deadline load shedding, fault injection
  (:mod:`repro.serving.faults`), and closed-loop graceful degradation
  (:mod:`repro.serving.degradation`).

On the resilient path every *logical* request ends in exactly one outcome
— ``completed``, ``shed``, or ``timed_out`` — and the latency arrays cover
completed requests only (``latencies == waits + services`` still holds;
waits of retried requests include their backoff).  ``ServerResult`` grows
outcome counts and a goodput metric: the fraction of offered requests
completed within their deadline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

import numpy as np

from ..errors import ConfigError
from ..obs import hooks as obs_hooks
from ..obs.metrics import Histogram
from . import fastserve
from .faults import FaultPlan
from .stats import (
    check_arrivals,
    check_service,
    safe_mean,
    safe_percentile,
    safe_ratio,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .degradation import DegradationController, LevelChange
    from .sla import SLATarget

__all__ = [
    "OUTCOME_COMPLETED",
    "OUTCOME_NAMES",
    "OUTCOME_SHED",
    "OUTCOME_TIMED_OUT",
    "ServerResult",
    "ServerSim",
    "ServingPolicy",
    "lognormal_services",
    "simulate_server",
]

#: Default coefficient of variation of per-batch service times.
DEFAULT_SERVICE_CV = 0.10

#: Per-request outcome codes (indices into :data:`OUTCOME_NAMES`).
OUTCOME_COMPLETED = 0
OUTCOME_SHED = 1
OUTCOME_TIMED_OUT = 2
OUTCOME_NAMES = ("completed", "shed", "timed_out")

@dataclass(frozen=True)
class ServingPolicy:
    """Admission-control and retry policy of one serving simulation.

    Parameters
    ----------
    deadline_ms:
        End-to-end latency budget per request (typically the model class's
        Table 1 SLA, see :meth:`for_sla`).  Used for goodput accounting
        and — when ``shed_expired`` — to drop requests whose deadline has
        already passed on (re-)arrival.
    timeout_ms:
        Maximum time a request waits in queue before abandoning.  A timed
        -out request retries (below) or ends ``timed_out``.
    max_retries:
        Retry budget per request after a queue timeout.  Each retry
        re-enqueues the request after an exponential backoff.  The queue
        is cancelled lazily: a retry that re-arrives before the
        dispatcher has passed its old queue slot is served from that
        slot (see ``docs/serving.md``, "Retry semantics").
    retry_backoff_ms / retry_jitter:
        Backoff of retry *k* is ``retry_backoff_ms * 2**(k-1)`` scaled by
        ``1 + retry_jitter * u`` with ``u ~ U[0,1)`` drawn from the fault
        plan's seeded jitter stream (deterministic per run).
    max_queue_depth:
        Load-shedding bound: a request arriving to a queue at this depth
        is shed immediately.
    shed_expired:
        Shed (re-)arrivals whose deadline has already passed instead of
        queueing doomed work.
    """

    deadline_ms: Optional[float] = None
    timeout_ms: Optional[float] = None
    max_retries: int = 0
    retry_backoff_ms: float = 1.0
    retry_jitter: float = 0.5
    max_queue_depth: Optional[int] = None
    shed_expired: bool = True

    def __post_init__(self) -> None:
        # A NaN passes every ordered check below and breaks every
        # comparison the event loops make.
        for name in ("deadline_ms", "timeout_ms", "retry_backoff_ms", "retry_jitter"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ConfigError("deadline must be positive")
        if self.timeout_ms is not None and self.timeout_ms <= 0:
            raise ConfigError("timeout must be positive")
        if self.max_retries < 0:
            raise ConfigError("retry budget must be non-negative")
        if self.retry_backoff_ms <= 0:
            raise ConfigError("retry backoff must be positive")
        if self.retry_jitter < 0:
            raise ConfigError("retry jitter must be non-negative")
        if self.max_queue_depth is not None and self.max_queue_depth <= 0:
            raise ConfigError("queue depth bound must be positive")
        if self.max_retries > 0 and self.timeout_ms is None:
            raise ConfigError("retries require a queue timeout")

    @classmethod
    def for_sla(cls, sla: "SLATarget", **overrides: object) -> "ServingPolicy":
        """Policy whose deadline and queue timeout are the SLA target."""
        kwargs: Dict[str, object] = {
            "deadline_ms": sla.sla_ms,
            "timeout_ms": sla.sla_ms,
        }
        kwargs.update(overrides)
        return cls(**kwargs)  # type: ignore[arg-type]

    @property
    def is_null(self) -> bool:
        """Whether this policy changes nothing about the plain path."""
        return (
            self.deadline_ms is None
            and self.timeout_ms is None
            and self.max_queue_depth is None
        )


@dataclass
class ServerResult:
    """Per-request latencies and outcomes of one serving simulation.

    The latency/wait/service arrays cover **completed** requests in
    arrival order (on the plain path every request completes, so they cover
    everything).  ``outcomes`` — when the resilient path ran — has one
    code per *logical* request (including burst-injected ones) in arrival
    order; ``retry_counts`` counts queue-timeout retries per request.
    """

    latencies_ms: np.ndarray
    waits_ms: np.ndarray
    services_ms: np.ndarray
    num_cores: int
    offered_interarrival_ms: float
    extra: dict = field(default_factory=dict)
    latency_hist: Optional[Histogram] = None
    core_ids: Optional[np.ndarray] = None
    outcomes: Optional[np.ndarray] = None
    retry_counts: Optional[np.ndarray] = None
    injected: Optional[np.ndarray] = None
    deadline_ms: Optional[float] = None
    degradation_events: List["LevelChange"] = field(default_factory=list)
    final_degradation_level: int = 0

    def percentile(self, q: float) -> float:
        """Latency percentile (q in [0, 100]); 0.0 with no requests.

        The empty case follows the same convention as
        :meth:`repro.mem.stats.CacheStats.hit_rate`: degenerate inputs
        yield 0.0 rather than an exception or NaN (see
        :mod:`repro.serving.stats`).
        """
        return safe_percentile(self.latencies_ms, q)

    @property
    def p50_ms(self) -> float:
        """Median end-to-end request latency."""
        return self.percentile(50.0)

    @property
    def p95_ms(self) -> float:
        """The paper's Fig 17 metric."""
        return self.percentile(95.0)

    @property
    def p99_ms(self) -> float:
        """Tail latency reported by the serving telemetry."""
        return self.percentile(99.0)

    @property
    def mean_ms(self) -> float:
        """Mean end-to-end request latency; 0.0 with no requests."""
        return safe_mean(self.latencies_ms)

    @property
    def utilization(self) -> float:
        """Offered load fraction: mean service / (cores x inter-arrival).

        0.0 when the inter-arrival time is unknown (fewer than two
        arrivals) — a single request defines no offered rate — or when no
        request was ever served (an all-shed node observes no service).
        """
        return safe_ratio(
            safe_mean(self.services_ms),
            self.num_cores * self.offered_interarrival_ms,
        )

    # -- outcome accounting --------------------------------------------------

    def outcome_count(self, name: str) -> int:
        """Number of logical requests with the given outcome name."""
        try:
            code = OUTCOME_NAMES.index(name)
        except ValueError:
            raise ConfigError(
                f"unknown outcome {name!r}; known: {OUTCOME_NAMES}"
            ) from None
        if self.outcomes is None:
            # Plain path: every request completed.
            return self.latencies_ms.size if code == OUTCOME_COMPLETED else 0
        return int(np.count_nonzero(self.outcomes == code))

    @property
    def outcome_counts(self) -> Dict[str, int]:
        """Outcome name -> request count (all logical requests)."""
        return {name: self.outcome_count(name) for name in OUTCOME_NAMES}

    @property
    def offered_requests(self) -> int:
        """Total logical requests (completed or not, injected included)."""
        if self.outcomes is None:
            return int(self.latencies_ms.size)
        return int(self.outcomes.size)

    @property
    def retries_total(self) -> int:
        """Total queue-timeout retries across all requests."""
        if self.retry_counts is None:
            return 0
        return int(self.retry_counts.sum())

    @property
    def goodput(self) -> float:
        """Fraction of offered requests completed within their deadline.

        Without a configured deadline every completion counts; 0.0 with no
        offered requests.
        """
        if self.deadline_ms is None:
            good = self.outcome_count("completed")
        else:
            good = int(np.count_nonzero(self.latencies_ms <= self.deadline_ms))
        return safe_ratio(good, self.offered_requests)


def lognormal_services(
    mean_ms: float, count: int, rng: np.random.Generator, cv: float = DEFAULT_SERVICE_CV
) -> np.ndarray:
    """Service times with the given mean and coefficient of variation."""
    check_service(mean_ms, cv)
    if cv == 0:
        return np.full(count, mean_ms)
    sigma2 = np.log(1.0 + cv * cv)
    mu = np.log(mean_ms) - sigma2 / 2.0
    return rng.lognormal(mu, np.sqrt(sigma2), size=count)


def _active_request_log():
    """The session's RequestLog, or None (the zero-cost branch)."""
    obs = obs_hooks.active()
    return obs.requests if obs is not None else None


@dataclass
class ServerSim:
    """One box's event loop, packaged as a reusable, seed-stable object.

    A ``ServerSim`` captures everything that defines a single server
    *except* its workload: service-time distribution, core count, fault
    plan, admission policy, and degradation controller.  Calling
    :meth:`run` with an arrival array and a generator executes the FIFO
    M/G/c simulation; :func:`simulate_server` is a thin wrapper over it.

    The point of the extraction is composition: a cluster
    (:mod:`repro.serving.cluster`) is N independent ``ServerSim`` worlds,
    each with its own seeded service stream, its own faults, and its own
    controller, glued together by a router rather than by shared state.
    """

    mean_service_ms: float
    num_cores: int
    service_cv: float = DEFAULT_SERVICE_CV
    fault_plan: Optional[FaultPlan] = None
    policy: Optional[ServingPolicy] = None
    controller: Optional["DegradationController"] = None
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.num_cores <= 0:
            raise ConfigError("need at least one core")
        check_service(self.mean_service_ms, self.service_cv)

    @property
    def is_plain(self) -> bool:
        """Whether :meth:`run` takes the vectorized happy path."""
        return (
            (self.fault_plan is None or self.fault_plan.is_empty)
            and (self.policy is None or self.policy.is_null)
            and self.controller is None
        )

    def run(
        self, arrivals_ms: np.ndarray, rng: np.random.Generator
    ) -> ServerResult:
        """Simulate this server against one arrival process."""
        check_arrivals(arrivals_ms)
        if self.is_plain:
            return _simulate_plain(
                arrivals_ms, self.mean_service_ms, self.num_cores, rng,
                self.service_cv, self.label,
            )
        return _simulate_resilient(
            arrivals_ms,
            self.mean_service_ms,
            self.num_cores,
            rng,
            self.service_cv,
            self.fault_plan if self.fault_plan is not None else FaultPlan(),
            self.policy if self.policy is not None else ServingPolicy(),
            self.controller,
            self.label,
        )


def simulate_server(
    arrivals_ms: np.ndarray,
    mean_service_ms: float,
    num_cores: int,
    rng: np.random.Generator,
    service_cv: float = DEFAULT_SERVICE_CV,
    fault_plan: Optional[FaultPlan] = None,
    policy: Optional[ServingPolicy] = None,
    controller: Optional["DegradationController"] = None,
    label: Optional[str] = None,
) -> ServerResult:
    """Run the FIFO M/G/c simulation and collect per-request latencies.

    With ``fault_plan``, ``policy``, and ``controller`` all ``None`` (or a
    null policy and an empty plan) this takes the plain happy path and
    returns byte-identical arrays to the pre-resilience simulator; any
    configured resilience feature switches to the event-driven loop.

    ``label`` names this simulation in request-scoped telemetry (the
    :class:`repro.obs.requests.RequestLog` run label and its trace track);
    it has no effect on simulation results.

    This is a thin wrapper over :class:`ServerSim`; use the class directly
    when the same server configuration runs many workloads (the cluster
    layer does).
    """
    return ServerSim(
        mean_service_ms=mean_service_ms,
        num_cores=num_cores,
        service_cv=service_cv,
        fault_plan=fault_plan,
        policy=policy,
        controller=controller,
        label=label,
    ).run(arrivals_ms, rng)


def _simulate_plain(
    arrivals_ms: np.ndarray,
    mean_service_ms: float,
    num_cores: int,
    rng: np.random.Generator,
    service_cv: float,
    label: Optional[str] = None,
) -> ServerResult:
    """The happy-path M/G/c simulation: vectorized draws, FIFO dispatch."""
    n = arrivals_ms.size
    services = lognormal_services(mean_service_ms, n, rng, cv=service_cv)
    starts, core_ids = fastserve.dispatch_plain(arrivals_ms, services, num_cores)
    result = ServerResult(
        latencies_ms=starts + services - arrivals_ms,
        waits_ms=starts - arrivals_ms,
        services_ms=services,
        num_cores=num_cores,
        offered_interarrival_ms=_offered_interarrival(arrivals_ms),
        core_ids=core_ids,
    )
    log = _active_request_log()
    run = None
    if log is not None:
        run = log.start_run(label=label)
        run.finish_fast(
            arrivals_ms, starts, services, core_ids, tracer=obs_hooks.active().tracer
        )
    _finalize(result, run=run)
    return result


def _simulate_resilient(
    arrivals_ms: np.ndarray,
    mean_service_ms: float,
    num_cores: int,
    rng: np.random.Generator,
    service_cv: float,
    plan: FaultPlan,
    policy: ServingPolicy,
    controller: Optional["DegradationController"],
    label: Optional[str] = None,
) -> ServerResult:
    """Event-driven loop with faults, deadlines, retries, and shedding."""
    arrivals, injected = plan.inject_arrivals(arrivals_ms)
    n = arrivals.size
    base_services = lognormal_services(mean_service_ms, n, rng, cv=service_cv)
    strag = plan.straggler_multipliers(n)
    base_services = base_services * strag
    jitter_rng = plan.retry_jitter_stream()

    log = _active_request_log()
    run = (
        log.start_run(label=label, deadline_ms=policy.deadline_ms)
        if log is not None
        else None
    )
    outcome, retry_count, starts, services, core_of = fastserve.resilient_events(
        arrivals, base_services, strag, num_cores,
        plan, policy, controller, jitter_rng, run,
    )

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
        run.finish(
            arrivals=arrivals,
            injected=injected,
            outcomes=outcome,
            retry_counts=retry_count,
            starts=starts,
            services=services,
            core_of=core_of,
            plan=plan,
            tracer=obs_hooks.active().tracer,
        )
    _finalize(result, plan=plan, controller=controller, run=run)
    return result


def _offered_interarrival(arrivals_ms: np.ndarray) -> float:
    """Mean inter-arrival time; 0.0 when a single arrival defines none."""
    if arrivals_ms.size > 1:
        return float(np.mean(np.diff(arrivals_ms)))
    return 0.0


def _finalize(
    result: ServerResult,
    plan: Optional[FaultPlan] = None,
    controller: Optional["DegradationController"] = None,
    run=None,
) -> None:
    """Attach the latency histogram and publish telemetry."""
    latencies = result.latencies_ms
    codes = Histogram._bucket_codes(latencies)  # both latency histograms' buckets
    result.latency_hist = Histogram()
    result.latency_hist._observe_coded(latencies, codes)
    obs = obs_hooks.active()
    if obs is None:
        return
    obs.metrics.counter("serving.requests").inc(result.offered_requests)
    lat_hist = obs.metrics.histogram("serving.latency_ms")
    if run is not None:
        # Link histogram buckets back to concrete requests: same exemplar
        # id as the request-log line and the per-request trace span.  A
        # log truncated by its bound tags only the requests it kept.
        reqs = run.completed_reqs()
        lat_hist._observe_coded(
            latencies, codes, lambda k: run.exemplar_id(int(reqs[k])), reqs.size
        )
    else:
        lat_hist._observe_coded(latencies, codes)
    obs.metrics.histogram("serving.wait_ms").observe_many(result.waits_ms)
    obs.metrics.gauge("serving.cores").set(result.num_cores)
    if result.outcomes is not None:
        obs.metrics.counter("serving.shed").inc(result.outcome_count("shed"))
        obs.metrics.counter("serving.timeouts").inc(
            result.outcome_count("timed_out")
        )
        obs.metrics.counter("serving.retries").inc(result.retries_total)
        obs.metrics.gauge("serving.degradation_level").set(
            result.final_degradation_level
        )
    if plan is not None and not plan.is_empty:
        tid = obs.tracer.new_sim_track("serving.faults (ms)")
        for name, start, end, attrs in plan.windows():
            obs.tracer.add_sim_span(
                name, "serving.fault", start, end - start, tid=tid, args=attrs
            )
    if controller is not None and controller.events:
        tid = obs.tracer.new_sim_track("serving.degradation (ms)")
        for event in controller.events:
            obs.tracer.add_sim_span(
                f"level:{controller.ladder[event.to_level].name}",
                "serving.degradation",
                event.time_ms,
                0.0,
                tid=tid,
                args={
                    "from": event.from_level,
                    "to": event.to_level,
                    "window_p95_ms": event.window_p95_ms,
                },
            )
