"""Opt-in performance benchmark (``REPRO_BENCH=1 pytest -m perf``).

Times the kernels of ``tools/bench_all.py`` on the package and on the
oracles, and asserts the package's memory walks beat the per-event
oracle of ``tests/embedding_oracle.py`` on the hot paths, the shipped
serving loops beat the heap-loop oracle of ``tests/serving_oracle.py``
they replaced, and the fast-path critical-path closed form beats the
event walk it skips.  Skipped by default: wall time depends on the
machine and CI boxes are noisy, so this only runs when explicitly
requested via ``REPRO_BENCH=1``.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import embedding_oracle
import serving_oracle
from repro.core.swpf import PAPER_SWPF
from repro.obs.critpath import (
    LIFECYCLE_CODES,
    Lifecycles,
    extract_fast,
    extract_lifecycles,
)
from repro.obs.hooks import Observation, session
from repro.obs.requests import RequestLog
from repro.serving.workload import poisson_arrivals

pytestmark = pytest.mark.perf

REPO_ROOT = Path(__file__).resolve().parent.parent

if os.environ.get("REPRO_BENCH") != "1":
    pytest.skip("set REPRO_BENCH=1 to run perf benchmarks", allow_module_level=True)


@pytest.fixture(scope="module")
def bench_all():
    spec = importlib.util.spec_from_file_location(
        "bench_all", REPO_ROOT / "tools" / "bench_all.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["bench_all"] = module
    spec.loader.exec_module(module)
    return module


def test_hierarchy_walk_beats_oracle(bench_all):
    fast = bench_all.bench_hierarchy(200_000)
    ref = bench_all.bench_hierarchy(
        200_000, build=embedding_oracle.build_hierarchy
    )
    assert ref["seconds"] / fast["seconds"] > 1.0


#: The three embedding walks of the ledger: the bulk walk (hardware
#: prefetch off), the fused kernel, and the fused kernel with the paper's
#: software-prefetch plan (the Integrated design point's walk).
EMBEDDING_WALKS = {
    "bulk": {},
    "hwpf": {"hw_prefetch": True},
    "swpf": {"hw_prefetch": True, "plan": PAPER_SWPF.plan()},
}


@pytest.mark.parametrize("walk", sorted(EMBEDDING_WALKS))
def test_embedding_walk_beats_oracle(bench_all, walk):
    """The ledger's smoke inputs through the package and the oracle."""
    kwargs = EMBEDDING_WALKS[walk]
    fast = bench_all.bench_embedding(0.01, 8, 1, **kwargs)
    ref = bench_all.bench_embedding(
        0.01, 8, 1, build=embedding_oracle.build_hierarchy,
        run=embedding_oracle.run_embedding_trace, **kwargs,
    )
    assert fast["lines"] == ref["lines"]
    assert fast["lines_per_sec"] > ref["lines_per_sec"]


def test_serving_loop_beats_oracle(bench_all):
    fast = bench_all.bench_serving(100_000)
    ref = bench_all.bench_serving(100_000, simulate=serving_oracle.simulate)
    assert ref["seconds"] / fast["seconds"] > 1.0
    # Acceptance floor: the serving loop must sustain at least 10M
    # simulated requests per minute of wall time.
    assert fast["requests_per_min"] >= 10_000_000


def test_quick_fig12_beats_oracle_engine():
    """The fig12 experiment on a one-model, one-dataset, 1-core slice,
    run in the package and under the oracle engine."""
    from repro.config import SimConfig
    from repro.experiments.registry import run_experiment

    overrides = {
        "models": ("rm2_1",), "datasets": ("low",), "core_counts": (1,),
        "scale": 0.01, "num_batches": 1,
    }

    def fig12_seconds() -> float:
        start = time.perf_counter()
        run_experiment("fig12", config=SimConfig(), **overrides)
        return time.perf_counter() - start

    fast = fig12_seconds()
    with embedding_oracle.oracle_engine():
        ref = fig12_seconds()
    assert ref > fast


def test_resilient_loop_fast_engine_wins(bench_all):
    """Faults, retries, shedding and a degradation controller: the
    resilient loop vs the oracle's on the pinned ledger scenario."""
    fast = bench_all.resilient_loop_rate(20_000, repeats=3)
    ref = bench_all.resilient_loop_rate(
        20_000, repeats=3, simulate=serving_oracle.simulate
    )
    assert fast > ref


def _best_of(fn, repeats=7) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_fast_path_closed_form_beats_event_walk():
    """A 50k-request, 64-core fast-path log: the closed form against the
    event walk over the same lifecycles as dispatch/complete events,
    both timed in this process."""
    log = RequestLog()
    with session(Observation(requests=log)):
        serving_oracle.SIMULATORS["fast"](
            poisson_arrivals(5.0 / (64 * 0.9), 50_000, np.random.default_rng(1)),
            5.0, 64, np.random.default_rng(2),
        )
    fast = log.runs[0].records.lifecycles()
    k = fast.arrival.size
    walk = Lifecycles(
        req=fast.req, ids=fast.ids, outcome=fast.outcome,
        outcome_names=fast.outcome_names, arrival=fast.arrival, end=fast.end,
        node=fast.node, ev_ptr=np.arange(0, 2 * k + 1, 2),
        ev_kind=np.tile(
            [LIFECYCLE_CODES["dispatch"], LIFECYCLE_CODES["complete"]], k
        ).astype(np.int64),
        ev_t=np.column_stack((fast.start, fast.end)).ravel(),
        ev_mult=np.ones(2 * k),
    )
    assert extract_fast(fast).seg_dur.tobytes() == (
        extract_lifecycles(walk).seg_dur.tobytes()
    )
    closed_s = _best_of(lambda: extract_fast(fast))
    walk_s = _best_of(lambda: extract_lifecycles(walk))
    assert walk_s >= 3.0 * closed_s, (walk_s, closed_s)


def _count_opcodes(run):
    """``run()``'s result and the bytecodes it executed in ``repro``."""
    import repro

    package = os.path.dirname(repro.__file__) + os.sep
    executed = 0

    def tracer(frame, event, arg):
        nonlocal executed
        if event == "opcode":
            executed += 1
        elif event == "call":
            if not frame.f_code.co_filename.startswith(package):
                return None  # no local tracing: the frame is not counted
            frame.f_trace_opcodes = True
        return tracer

    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(None)
    return result, executed


#: Bytecodes executed in the package's own code per request of the logged
#: resilient episode below, on Python 3.11 (the perf-smoke job's): 426.7 at
#: the time of writing (439.9 when the degradation controller kept a
#: sorted window).  Library frames (numpy's Python wrappers, heapq's
#: fallbacks) are not counted, so a dependency release cannot trip it.
#: About 1% of headroom: one more Python call per quiet request trips it
#: on any host, where a wall-clock bound could not.
RESILIENT_OPCODES_PER_REQUEST = 431.0


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="opcode counts are pinned for 3.11"
)
def test_resilient_loop_opcodes_per_request():
    """One logged 16-core episode built like ``serve_resilient_logged``'s
    smoke episode 0 (1,000 Poisson arrivals plus a 50-request burst, a
    bandwidth window, stragglers, retries, shedding and a degradation
    controller), the bytecodes it executes in frames of ``repro`` counted
    with ``sys.settrace``."""
    from repro.config import SimConfig
    from repro.serving.degradation import DegradationController, scheme_ladder
    from repro.serving.faults import (
        ArrivalBurst,
        BandwidthDegradation,
        FaultPlan,
        Stragglers,
    )
    from repro.serving.server import ServerSim, ServingPolicy

    service_ms, cores, n = 5.0, 16, 1_000
    interarrival = service_ms / (cores * 0.8)
    horizon = n * interarrival
    deadline = 5.0 * service_ms
    config = SimConfig(seed=1)
    plan = FaultPlan(
        [
            BandwidthDegradation(0.25 * horizon, 0.6 * horizon, 2.5),
            ArrivalBurst(0.4 * horizon, n // 20, interarrival / 5.0),
            Stragglers(0.05, 5.0, tail_alpha=1.5),
        ],
        seed=int(config.rng("bench:episode:0").integers(2**31)),
    )
    controller = DegradationController(
        scheme_ladder(
            {"baseline": 1.0, "sw_pf": 0.8, "integrated": 0.65}, batch_scale=0.6
        ),
        sla_ms=deadline, window=48, min_samples=12, escalate_margin=0.75,
        recover_margin=0.4, cooldown=256,
    )
    sim = ServerSim(
        mean_service_ms=service_ms, num_cores=cores, fault_plan=plan,
        policy=ServingPolicy(
            deadline_ms=deadline, timeout_ms=deadline, max_retries=1,
            retry_backoff_ms=service_ms, max_queue_depth=20 * cores,
        ),
        controller=controller,
    )
    arrivals = poisson_arrivals(interarrival, n, config.rng("bench:arrivals:0"))
    rng = config.rng("bench:service:0")
    log = RequestLog()
    with session(Observation(requests=log)):
        result, executed = _count_opcodes(lambda: sim.run(arrivals, rng))
    per_request = executed / result.offered_requests
    assert result.offered_requests == 1_050
    assert per_request <= RESILIENT_OPCODES_PER_REQUEST, per_request


#: Bytecodes executed in the package's own code per request of the cluster
#: episode below, on Python 3.11, with about 1% of headroom over the count
#: at the time of writing (786.7; the flat loop it replaced ran 1,057.7).
CLUSTER_OPCODES_PER_REQUEST = 795.0


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="opcode counts are pinned for 3.11"
)
def test_cluster_loop_opcodes_per_request():
    """One episode built like ``cluster16_nodekill``'s smoke episode 0
    (16 nodes x 4 cores, 32 shards, replication 2, gather width 2,
    hedging, hotness placement, least-loaded routing, node 1 down for
    25-60% of the horizon, 750 requests, seed-1 inputs, hooks off), the
    bytecodes it executes in frames of ``repro`` counted with
    ``sys.settrace``."""
    from repro.config import SimConfig
    from repro.serving.cluster import ClusterConfig, ClusterSim
    from repro.serving.faults import ClusterFaultPlan, NodeCrash
    from repro.serving.router import HedgePolicy

    nodes, cores, call_ms, gather, n = 16, 4, 2.0, 2, 750
    interarrival = gather * call_ms / (nodes * cores * 0.35)
    horizon = n * interarrival
    config = SimConfig(seed=1)
    seed = int(config.rng("bench:episode:0").integers(2**31))
    sim = ClusterSim(
        ClusterConfig(
            num_nodes=nodes, cores_per_node=cores, mean_service_ms=call_ms,
            num_shards=32, replication=2, gather_width=gather, hop_ms=0.1,
            call_timeout_ms=25.0, deadline_ms=100.0, placement="hotness",
            routing="least_loaded",
            hedge=HedgePolicy(quantile=95.0, min_ms=6.0, window=128),
            faults=ClusterFaultPlan(
                [NodeCrash(1, 0.25 * horizon, 0.6 * horizon)], seed=seed
            ),
            seed=seed,
        )
    )
    arrivals = poisson_arrivals(interarrival, n, config.rng("bench:arrivals:0"))
    result, executed = _count_opcodes(lambda: sim.run(arrivals))
    per_request = executed / result.offered_requests
    assert result.offered_requests == n
    assert result.failovers > 0 and result.hedges_issued > 0
    assert per_request <= CLUSTER_OPCODES_PER_REQUEST, per_request


#: Bytecodes executed in the package's own code per demand load of the
#: two 1-core walks below on the smoke-size Low-hot workload, on Python
#: 3.11, with about 1% of headroom over the counts at the time of writing.
#: The baseline walk (hardware prefetching on) exercises the demand walk,
#: the load queue and the hardware-prefetch candidates; the SW-PF walk
#: adds the software-prefetch fills.
FUSED_WALK_OPCODES_PER_LOAD = {"baseline": 454.0, "sw_pf": 326.0}


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="opcode counts are pinned for 3.11"
)
@pytest.mark.parametrize("walk", sorted(FUSED_WALK_OPCODES_PER_LOAD))
def test_fused_walk_opcodes_per_load(walk):
    """One 1-core fused walk over ``emb_lowhot``'s
    smoke inputs (``rm2_1``, Low-hot, scale 0.01, batch 4, one batch,
    seed 1), the bytecodes it executes in frames of ``repro`` counted with
    ``sys.settrace`` and divided by its demand loads."""
    from repro.config import SimConfig
    from repro.core.swpf import PAPER_SWPF
    from repro.cpu.platform import get_platform
    from repro.engine.embedding_exec import run_embedding_trace
    from repro.experiments.workloads import build_workload
    from repro.mem.hierarchy import build_hierarchy

    wl = build_workload(
        "rm2_1", "low", scale=0.01, batch_size=4, num_batches=1,
        config=SimConfig(seed=1),
    )
    spec = get_platform("csl")
    plan = PAPER_SWPF.plan() if walk == "sw_pf" else None
    hierarchy = build_hierarchy(spec.hierarchy)
    result, executed = _count_opcodes(
        lambda: run_embedding_trace(
            wl.trace, wl.amap, spec.core, hierarchy, plan=plan
        )
    )
    per_load = executed / result.loads
    assert result.loads == 2_216
    assert per_load <= FUSED_WALK_OPCODES_PER_LOAD[walk], per_load
