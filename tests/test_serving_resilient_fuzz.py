"""Differential fuzzer: the package's resilient loop against the oracle.

``repro.serving.fastserve.resilient_events`` reorders the oracle's
(``tests/serving_oracle.py``) single ``(time, kind, seq)`` heap into
three merged streams (static arrivals, a timeout FIFO, a heap of core
releases and retry arrivals), hands freed cores the queue head directly,
and re-reads the degradation controller only when ``observe`` reports a
change.  Every one of those shortcuts is exact only if ties break as the
oracle breaks them, so this sweep snaps arrivals, fault windows, timeouts and backoffs
to a 0.25 ms grid (exact in binary floating point) and often draws
constant service times: many events then land on the same instant.

Each case compares the float bits of every ``ServerResult`` array, the
outcome and retry columns, the controller's level changes, and the
sha256 of the exported request log.  ``"fast"`` names the package and
``"reference"`` the oracle.
"""

import hashlib

import numpy as np
import pytest

import serving_oracle
from repro.analysis.cache_model import analyze_trace_reuse
from repro.config import SimConfig
from repro.cpu.platform import get_platform
from repro.experiments.workloads import build_workload
from repro.obs.hooks import Observation, session
from repro.obs.requests import RequestLog
from repro.serving.degradation import DegradationController, DegradationLevel
from repro.serving.faults import (
    ArrivalBurst,
    BandwidthDegradation,
    CoreFailure,
    CoreSlowdown,
    FaultPlan,
    Stragglers,
)
from repro.serving import fastserve
from repro.serving.server import ServingPolicy, simulate_server
from repro.tenants import (
    ContentionModel,
    QoSController,
    TenantFaultPlan,
    TenantMix,
    TenantWorld,
    locker_tenant,
    streaming_tenant,
)

SIMULATORS = serving_oracle.SIMULATORS

NUM_CASES = 240
CORE_COUNTS = (1, 2, 4, 16, 24)
GRID_MS = 0.25
MEAN_SERVICE_MS = 5.0

#: Dyadic rungs keep degraded service times on the grid too.
LADDER = (
    DegradationLevel("baseline", 1.0),
    DegradationLevel("sw_pf", 0.75),
    DegradationLevel("integrated", 0.5),
    DegradationLevel("integrated_small_batch", 0.25),
)


def _snap(values):
    return np.round(np.asarray(values, dtype=float) / GRID_MS) * GRID_MS


def _window(rng, horizon_ms, max_len_ms=None, permanent_p=0.0):
    start = float(_snap(rng.uniform(0.0, 0.8 * horizon_ms)))
    if rng.random() < permanent_p:
        return start, float("inf")
    if max_len_ms is None:
        max_len_ms = 0.5 * horizon_ms
    return start, start + float(_snap(rng.uniform(GRID_MS, max_len_ms)))


def _case(seed):
    """One seeded scenario: ``(arrivals, cores, cv, plan, policy, make_ctrl)``."""
    rng = np.random.default_rng([seed, 15])
    cores = CORE_COUNTS[seed % len(CORE_COUNTS)]
    n = int(rng.integers(40, 120)) + 6 * cores
    util = rng.uniform(0.2, 1.6)
    arrivals = _snap(
        np.cumsum(rng.exponential(MEAN_SERVICE_MS / (cores * util), n))
    )
    horizon = float(arrivals[-1]) + GRID_MS
    cv = float(rng.choice([0.0, 0.0, 0.1, 1.0]))

    faults = []
    if rng.random() < 0.5:
        # Often many short outages, so cores fail while idle and repair
        # while others idle too.
        outages = int(rng.integers(1, 3)) if rng.random() < 0.5 else 4 * cores
        for _ in range(outages):
            start, end = _window(
                rng, horizon, horizon / outages, permanent_p=0.15 / outages
            )
            faults.append(CoreFailure(int(rng.integers(cores)), start, end))
    if rng.random() < 0.5:
        start, end = _window(rng, horizon)
        faults.append(
            CoreSlowdown(
                int(rng.integers(cores)), start, end,
                float(rng.choice([1.5, 2.0, 3.0])),
            )
        )
    if rng.random() < 0.5:
        start, end = _window(rng, horizon)
        faults.append(
            BandwidthDegradation(start, end, float(rng.choice([1.25, 2.0])))
        )
    if rng.random() < 0.5:
        faults.append(
            ArrivalBurst(
                float(_snap(rng.uniform(0.0, horizon))),
                int(rng.integers(5, 30)),
                float(rng.choice([GRID_MS, 2 * GRID_MS])),
            )
        )
    if rng.random() < 0.5:
        faults.append(
            Stragglers(
                float(rng.uniform(0.1, 0.3)),
                float(rng.choice([2.0, 4.0])),
                tail_alpha=float(rng.choice([0.0, 1.5])),
            )
        )
    plan = FaultPlan(faults, seed=seed)

    timeout = (
        None if rng.random() < 0.3 else float(rng.choice([2.5, 5.0, 10.0, 20.0]))
    )
    policy = ServingPolicy(
        deadline_ms=(
            None if rng.random() < 0.3 else float(rng.choice([10.0, 25.0]))
        ),
        timeout_ms=timeout,
        max_retries=int(rng.integers(0, 3)) if timeout is not None else 0,
        retry_backoff_ms=float(rng.choice([0.5, 1.0, 2.5])),
        retry_jitter=float(rng.choice([0.0, 0.5])),
        max_queue_depth=(
            None if rng.random() < 0.5 else int(rng.choice([1, 4, 16]))
        ),
        shed_expired=bool(rng.random() < 0.5),
    )

    make_ctrl = lambda: None  # noqa: E731
    if rng.random() < 0.5:
        window = int(rng.choice([4, 8, 32]))
        params = dict(
            sla_ms=float(rng.choice([7.5, 10.0, 20.0])),
            window=window,
            min_samples=min(window, int(rng.choice([2, 4]))),
            escalate_margin=float(rng.choice([0.75, 1.0])),
            recover_margin=0.5,
            cooldown=int(rng.choice([0, 8, 32])),
        )
        make_ctrl = lambda: DegradationController(LADDER, **params)  # noqa: E731
    if plan.is_empty and policy.is_null and make_ctrl() is None:
        # Keep every case on the resilient path.
        policy = ServingPolicy(deadline_ms=25.0)
    return arrivals, cores, cv, plan, policy, make_ctrl


def _run(engine, seed, case, log_path):
    arrivals, cores, cv, plan, policy, make_ctrl = case
    controller = make_ctrl()
    log = RequestLog()
    with session(Observation(requests=log)):
        result = SIMULATORS[engine](
            arrivals, MEAN_SERVICE_MS, cores, np.random.default_rng(seed),
            service_cv=cv, fault_plan=plan, policy=policy,
            controller=controller,
        )
    log.to_jsonl(log_path)
    return result, hashlib.sha256(log_path.read_bytes()).hexdigest()


def assert_bit_identical(fast, ref):
    for attr in ("latencies_ms", "waits_ms", "services_ms", "core_ids"):
        a, b = getattr(fast, attr), getattr(ref, attr)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), attr
    for attr in ("outcomes", "retry_counts", "injected"):
        assert np.array_equal(getattr(fast, attr), getattr(ref, attr)), attr
    assert fast.degradation_events == ref.degradation_events
    assert fast.final_degradation_level == ref.final_degradation_level
    assert fast.offered_interarrival_ms == ref.offered_interarrival_ms


@pytest.mark.parametrize("seed", range(NUM_CASES))
def test_fast_matches_reference(seed, tmp_path):
    case = _case(seed)
    fast, fast_sha = _run("fast", seed, case, tmp_path / "fast.jsonl")
    ref, ref_sha = _run("reference", seed, case, tmp_path / "ref.jsonl")
    assert_bit_identical(fast, ref)
    assert fast_sha == ref_sha


def test_sweep_covers_the_configuration_space():
    cases = [_case(seed) for seed in range(NUM_CASES)]
    assert {case[1] for case in cases} == set(CORE_COUNTS)
    plans = [case[3] for case in cases]
    for kind in ("failures", "slowdowns", "bandwidth", "bursts", "stragglers"):
        assert any(getattr(p, kind) for p in plans), kind
        assert not all(getattr(p, kind) for p in plans), kind
    assert any(f.end_ms == float("inf") for p in plans for f in p.failures)
    policies = [case[4] for case in cases]
    assert {p.timeout_ms is None for p in policies} == {True, False}
    assert {p.max_retries for p in policies} == {0, 1, 2}
    assert {p.max_queue_depth is None for p in policies} == {True, False}
    assert {p.shed_expired for p in policies} == {True, False}
    assert {case[5]() is None for case in cases} == {True, False}


def test_sweep_exercises_every_outcome_and_ties():
    """The cases must reach what the shortcuts are exact about: retries,
    shedding, final timeouts, level changes, and same-instant events."""
    seen = {"retried": 0, "shed": 0, "timed_out": 0, "level_changes": 0,
            "start_on_arrival_tie": 0}
    for seed in range(0, NUM_CASES, 4):
        arrivals, cores, cv, plan, policy, make_ctrl = _case(seed)
        result = simulate_server(
            arrivals, MEAN_SERVICE_MS, cores, np.random.default_rng(seed),
            service_cv=cv, fault_plan=plan, policy=policy,
            controller=make_ctrl(),
        )
        seen["retried"] += result.retries_total
        seen["shed"] += result.outcome_count("shed")
        seen["timed_out"] += result.outcome_count("timed_out")
        seen["level_changes"] += len(result.degradation_events)
        # A queued request started at the very instant another arrived:
        # a core release tied with an arrival.
        merged = plan.inject_arrivals(arrivals)[0]
        arrived = set(merged.tolist())
        waits = result.waits_ms
        starts = merged[result.outcomes == 0] + waits
        seen["start_on_arrival_tie"] += int(
            sum(1 for s, w in zip(starts.tolist(), waits.tolist())
                if w > 0 and s in arrived)
        )
    assert all(count > 0 for count in seen.values()), seen


# -- noisy neighbour: QoS controller wrapping a degradation controller ---------


@pytest.fixture(scope="module")
def contention():
    cfg = SimConfig(seed=11)
    spec = get_platform("csl")
    wl = build_workload(
        "rm1", "low", scale=0.01, batch_size=8, num_batches=1, config=cfg
    )
    reuse = analyze_trace_reuse(
        wl.trace, spec.hierarchy, wl.model.embedding_dim, dataset="low"
    )
    return ContentionModel(wl.model, reuse.reuse, spec, 8)


def test_qos_wrapped_controller_level_changes_reach_the_fast_loop(
    contention, tmp_path
):
    """``QoSController.observe`` must pass its inner controller's level
    changes on: the package's loop re-reads the service scale only then, so a
    swallowed change dispatches at a stale scale and diverges here."""
    num_cores, n = 4, 1500
    interarrival = MEAN_SERVICE_MS / (num_cores * 0.9)
    arrivals = _snap(
        np.cumsum(np.random.default_rng(5).exponential(interarrival, n))
    )
    horizon = float(arrivals[-1])
    policy = ServingPolicy(
        deadline_ms=25.0, timeout_ms=25.0, max_retries=1, retry_backoff_ms=5.0,
        max_queue_depth=80,
    )

    def run(engine):
        world = TenantWorld(
            TenantMix((locker_tenant(),), seed=3), contention, horizon
        )
        inner = DegradationController(
            LADDER, sla_ms=12.0, window=32, min_samples=8,
            escalate_margin=0.75, recover_margin=0.4, cooldown=64,
        )
        qos = QoSController(world, horizon / 40.0, inner=inner, seed=3)
        log = RequestLog()
        with session(Observation(requests=log)):
            result = SIMULATORS[engine](
                arrivals, MEAN_SERVICE_MS, num_cores,
                np.random.default_rng(17),
                fault_plan=TenantFaultPlan(world, seed=3), policy=policy,
                controller=qos,
            )
        path = tmp_path / f"{engine}.jsonl"
        log.to_jsonl(path)
        return result, hashlib.sha256(path.read_bytes()).hexdigest(), world

    fast, fast_sha, fast_world = run("fast")
    ref, ref_sha, ref_world = run("reference")
    assert len(ref.degradation_events) >= 1
    assert ref_world.changes  # the defense moved the multiplier mid-run
    assert fast_world.changes == ref_world.changes
    assert_bit_identical(fast, ref)
    assert fast_sha == ref_sha


@pytest.mark.parametrize("seed", range(0, NUM_CASES, 6))
def test_queue_compaction_is_invisible(seed, tmp_path, monkeypatch):
    """The package's loop drops passed queue slots once enough pile up; at a
    tiny threshold the sweep's cases compact constantly."""
    monkeypatch.setattr(fastserve, "_QUEUE_COMPACT", 2)
    case = _case(seed)
    fast, fast_sha = _run("fast", seed, case, tmp_path / "fast.jsonl")
    ref, ref_sha = _run("reference", seed, case, tmp_path / "ref.jsonl")
    assert_bit_identical(fast, ref)
    assert fast_sha == ref_sha


# -- long runs on large boxes: mostly quiet, with sparse fault windows -------

LONG_CASES = 24
LONG_CORE_COUNTS = (16, 24, 64)


def _long_case(k):
    """A long, mostly quiet run: ``(arrivals, cores, cv, make, policy,
    grid, qos)``, where ``make(contention)`` builds a fresh plan and
    controller.  Odd cases snap everything to the grid (tie-heavy); every
    third even and odd case puts a QoS controller and a tenant world on
    top."""
    rng = np.random.default_rng([k, 21])
    cores = LONG_CORE_COUNTS[k % len(LONG_CORE_COUNTS)]
    grid = k % 2 == 1
    qos = k % 6 in (0, 3)
    n = int(rng.integers(2000, 6001))
    util = rng.uniform(0.7, 1.0)
    arrivals = np.cumsum(rng.exponential(MEAN_SERVICE_MS / (cores * util), n))
    if grid:
        arrivals = _snap(arrivals)
    horizon = float(arrivals[-1]) + GRID_MS
    cv = float(rng.choice([0.0, 0.0, 0.1] if grid else [0.3, 1.0]))

    def window(max_frac):
        start, end = _window(rng, horizon, max_frac * horizon)
        return (start, end) if grid else (start + 0.1, end + 0.1)

    faults = []
    if rng.random() < 0.7:
        start, end = window(0.15)
        factor = float(rng.choice([2.0, 3.0]))
        faults.append(BandwidthDegradation(start, end, factor))
    if rng.random() < 0.5:
        start, end = window(0.1)
        faults.append(
            CoreSlowdown(
                int(rng.integers(cores)), start, end, float(rng.choice([1.5, 2.0]))
            )
        )
    if rng.random() < 0.5:
        start, end = window(0.05)
        faults.append(CoreFailure(int(rng.integers(cores)), start, end))
    if rng.random() < 0.5:
        faults.append(
            ArrivalBurst(
                float(_snap(rng.uniform(0.0, horizon))),
                int(rng.integers(cores, 4 * cores)),
                float(rng.choice([GRID_MS, 2 * GRID_MS])),
            )
        )
    faults.append(
        Stragglers(0.05, 2.0, tail_alpha=0.0)
        if grid
        else Stragglers(0.05, 4.0, tail_alpha=1.5)
    )
    plan_seed = int(rng.integers(2**31))
    timeout = float(rng.choice([5.0, 10.0, 20.0]))
    policy = ServingPolicy(
        deadline_ms=25.0,
        timeout_ms=timeout,
        max_retries=int(rng.integers(0, 3)),
        retry_backoff_ms=float(rng.choice([2.5, 5.0])),
        retry_jitter=0.0 if grid else 0.5,
        max_queue_depth=(
            None if rng.random() < 0.4 else int(rng.choice([1, 4])) * cores
        ),
        shed_expired=bool(rng.random() < 0.5),
    )
    window_len = int(rng.integers(32, 65))
    params = dict(
        sla_ms=float(rng.choice([10.0, 20.0])),
        window=window_len,
        min_samples=int(rng.integers(8, 17)),
        escalate_margin=float(rng.choice([0.75, 1.0])),
        recover_margin=0.5,
        cooldown=int(rng.choice([32, 128, 256])),
    )
    qos_windows = int(rng.integers(20, 60))

    def make(contention):
        """Fresh plan and controller: both carry run state."""
        ctrl = DegradationController(LADDER, **params)
        if not qos:
            return FaultPlan(faults, seed=plan_seed), ctrl
        tenant = locker_tenant() if k % 4 == 0 else streaming_tenant()
        world = TenantWorld(TenantMix((tenant,), seed=k), contention, horizon)
        return (
            TenantFaultPlan(world, faults, seed=plan_seed),
            QoSController(world, horizon / qos_windows, inner=ctrl, seed=k),
        )

    return arrivals, cores, cv, make, policy, grid, qos


def _long_run(engine, k, case, contention, log_path):
    arrivals, cores, cv, make, policy, _, _ = case
    plan, controller = make(contention)
    log = RequestLog()
    with session(Observation(requests=log)):
        result = SIMULATORS[engine](
            arrivals, MEAN_SERVICE_MS, cores, np.random.default_rng([k, 22]),
            service_cv=cv, fault_plan=plan, policy=policy,
            controller=controller,
        )
    log.to_jsonl(log_path)
    return result, hashlib.sha256(log_path.read_bytes()).hexdigest()


@pytest.mark.parametrize("k", range(LONG_CASES))
def test_long_stretches_match_reference(k, contention, tmp_path):
    """Long runs on 16+ cores, where the package's loop spends most of its
    events on the quiet path and leaves it at every timeout, shed, retry
    and level change."""
    case = _long_case(k)
    fast, fast_sha = _long_run("fast", k, case, contention, tmp_path / "f.jsonl")
    ref, ref_sha = _long_run("reference", k, case, contention, tmp_path / "r.jsonl")
    assert_bit_identical(fast, ref)
    assert fast_sha == ref_sha


def test_long_slice_covers_its_space(contention):
    cases = [_long_case(k) for k in range(LONG_CASES)]
    assert {c[1] for c in cases} == set(LONG_CORE_COUNTS)
    assert all(2000 <= c[0].size for c in cases)
    assert sum(1 for c in cases if c[6]) >= 4
    assert {c[5] for c in cases if c[6]} == {True, False}
    assert {c[5] for c in cases} == {True, False}
