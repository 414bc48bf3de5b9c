"""Pinned benchmark suite feeding the regression observatory.

Runs a fixed set of benchmarks spanning every layer the paper's story
depends on and appends one schema-versioned record per invocation to
``BENCH_history.jsonl`` (the repo's performance trajectory)::

    PYTHONPATH=src python tools/bench_all.py --mode smoke --repeats 3
    PYTHONPATH=src python tools/bench_all.py --mode full

The suite:

* **engine wall clocks** (kind ``wall``) — demand-walk throughput of
  the hierarchy on a Zipf line stream, the embedding hot path (hardware
  prefetch off: the bulk walk; on: the fused kernel; on with the paper's
  software-prefetch plan: the Integrated walk), and the throughput of
  the M/G/c serving loop near saturation, median of ``--repeats``
  trials; host-dependent, so the gate skips them unless
  ``bench_gate.py --include-wall``.  The rows keep the ``.fast`` in their
  names (``engine.hierarchy.fast.lines_per_sec``, ...) from when a second,
  reference engine had rows beside them, so their history stays one
  series.  :func:`bench_hierarchy`, :func:`bench_embedding` and
  :func:`bench_serving` take the function they time as an argument, so
  ``tests/test_perf_bench.py`` times the oracles with the same code.
* **scheme sim outputs** (kind ``sim``) — MP-HT / DP-HT / Integrated
  end-to-end speedups over baseline from :func:`evaluate_all_schemes`;
  exact simulator outputs, identical on every host, gated strictly.
* **serving sim outputs** (kind ``sim``) — p50/p95/p99 and goodput of a
  pinned resilience scenario (bandwidth degradation + arrival burst +
  stragglers against a retry/shed policy and a degradation controller)
  plus the fast-path p95; also exact.
* **cluster sim outputs** (kind ``sim``) — goodput and quality/latency
  tails of a pinned replicated+hedged 4-node cluster riding out a node
  kill (the ``cluster_resilience`` headline, pinned); also exact.
* **resilient loop** (``serving.resilient.requests_per_min``, kind
  ``wall``) — simulated requests per minute through the resilient loop
  on the pinned resilience scenario, observation off.
* **cluster loop** (``serving.cluster16.requests_per_min``, kind
  ``wall``) — simulated requests per minute through the 16-node,
  node-kill, hedged cluster loop.
* **fleet observability** (``obs.fleet.*``) — span-forest merge and
  drift-detector update throughputs (kind ``wall``) bounding what the
  tracing layer may cost, plus detection recall/MTTD on the pinned
  node-kill run (kind ``sim``, exact).
* **critical path** (``obs.critpath.*``) — extraction throughput over a
  pinned cluster log and a single-box log (kind ``wall``), plus the
  conservation rate and the worst gated what-if prediction error of the
  ``critpath_observatory`` scenarios (kind ``sim``, exact).
* **request log** (``obs.requests.overhead_x.*``) — wall time of a plain
  and a resilient single-box run with the request log on and its
  critical paths extracted, over the same run unobserved (kind
  ``wall``).

Records validate against ``$defs.bench_record`` in
``tools/trace_schema.json``; ``tools/bench_gate.py`` compares the two
newest records and fails CI on a regression, and
``tools/obs_dashboard.py`` renders the trajectory.
"""

from __future__ import annotations

import argparse
import json
import platform as platform_mod
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from bench.workloads import DEFAULT_SEED, _cluster_setup  # noqa: E402
from repro.config import SimConfig  # noqa: E402
from repro.core.schemes import evaluate_all_schemes  # noqa: E402
from repro.core.swpf import PAPER_SWPF  # noqa: E402
from repro.cpu.platform import get_platform  # noqa: E402
from repro.engine.embedding_exec import (  # noqa: E402
    PrefetchPlan,
    run_embedding_trace,
)
from repro.experiments.noisy_neighbor import run as noisy_run  # noqa: E402
from repro.experiments.workloads import build_workload  # noqa: E402
from repro.mem.hierarchy import build_hierarchy  # noqa: E402
from repro.obs.critpath import extract_paths  # noqa: E402
from repro.obs.regress import (  # noqa: E402
    Benchmark,
    append_record,
    make_record,
    median,
)
from repro.obs.detect import MeanShiftDetector  # noqa: E402
from repro.obs.fleet import FleetSpan, merge_spans  # noqa: E402
from repro.obs.hooks import Observation, session  # noqa: E402
from repro.obs.requests import RequestLog  # noqa: E402
from repro.obs.schema import validate_def  # noqa: E402
from repro.obs.slo import (  # noqa: E402
    FleetMonitor,
    node_window_stats,
    score_detections,
)
from repro.serving.degradation import (  # noqa: E402
    DegradationController,
    scheme_ladder,
)
from repro.serving.faults import (  # noqa: E402
    ArrivalBurst,
    BandwidthDegradation,
    ClusterFaultPlan,
    FaultPlan,
    NodeCrash,
    Stragglers,
)
from repro.serving.cluster import ClusterConfig, ClusterSim  # noqa: E402
from repro.serving.router import HedgePolicy  # noqa: E402
from repro.serving.server import ServingPolicy, simulate_server  # noqa: E402
from repro.serving.workload import poisson_arrivals  # noqa: E402

__all__ = [
    "bench_embedding",
    "bench_hierarchy",
    "bench_serving",
    "main",
    "resilient_loop_rate",
    "run_suite",
]

SCHEMA_PATH = REPO_ROOT / "tools" / "trace_schema.json"
DEFAULT_HISTORY = REPO_ROOT / "BENCH_history.jsonl"

#: Relative wobble tolerated on wall-clock throughputs before the
#: absolute noise floor is exceeded (shared CI machines are noisy).
WALL_NOISE_FRAC = 0.15

MODES = ("smoke", "full")


def _wall(
    name: str, value: float, unit: str, direction: str = "higher"
) -> Benchmark:
    """A ``wall`` row whose noise floor is :data:`WALL_NOISE_FRAC` of it."""
    return Benchmark(
        name=name,
        value=value,
        unit=unit,
        direction=direction,
        noise_floor=WALL_NOISE_FRAC * value,
        kind="wall",
    )


def _zipf_stream(num_lines: int) -> np.ndarray:
    """Row-expanded Zipf line stream (8-line rows, skewed row popularity)."""
    rng = np.random.default_rng(7)
    rows = rng.zipf(1.2, num_lines // 8) % 200_000
    return (rows[:, None] * 8 + np.arange(8)).ravel().astype(np.int64)


def bench_hierarchy(
    num_lines: int, build: Callable = build_hierarchy
) -> Dict[str, float]:
    """Demand-walk throughput on a Zipf stream through a cold hierarchy
    that ``build`` makes (called like :func:`build_hierarchy`)."""
    lines = _zipf_stream(num_lines)
    hierarchy = build(get_platform("csl").hierarchy, hw_prefetch=False)
    start = time.perf_counter()
    hierarchy.access_lines(lines)
    seconds = time.perf_counter() - start
    return {"lines": float(lines.size), "seconds": seconds,
            "lines_per_sec": lines.size / seconds}


def bench_embedding(
    scale: float,
    batch_size: int,
    num_batches: int,
    hw_prefetch: bool = False,
    plan: Optional[PrefetchPlan] = None,
    build: Callable = build_hierarchy,
    run: Callable = run_embedding_trace,
) -> Dict[str, float]:
    """The embedding hot path (the paper's Algorithm 1 loop) on a Low-hot
    ``rm2_1`` trace through a fresh hierarchy.

    ``hw_prefetch=False`` measures the vectorized bulk walk; ``True``
    (every Fig 12/13 design point but "w/o HW-PF") the fused kernel, and
    with the paper's software-prefetch ``plan`` the Integrated design
    point's walk.  ``build`` and ``run`` are called like
    :func:`build_hierarchy` and :func:`run_embedding_trace`.
    """
    wl = build_workload(
        "rm2_1", "low", scale=scale, batch_size=batch_size,
        num_batches=num_batches, config=SimConfig(seed=1234),
    )
    spec = get_platform("csl")
    hierarchy = build(spec.hierarchy, hw_prefetch=hw_prefetch)
    start = time.perf_counter()
    result = run(wl.trace, wl.amap, spec.core, hierarchy, plan=plan)
    seconds = time.perf_counter() - start
    return {"lines": float(result.loads), "seconds": seconds,
            "lines_per_sec": result.loads / seconds}


def bench_serving(
    num_requests: int,
    num_cores: int = 64,
    utilization: float = 0.9,
    simulate: Callable = simulate_server,
) -> Dict[str, float]:
    """Serving-loop throughput (simulated requests/min of wall time).

    Heavy load near saturation on a many-core box — the regime where the
    event loop, not the arrival process, is the bottleneck.  ``simulate``
    is the simulator timed, called like :func:`simulate_server`.
    """
    config = SimConfig(seed=7)
    mean_service_ms = 5.0
    interarrival_ms = mean_service_ms / (num_cores * utilization)
    arrivals = poisson_arrivals(
        interarrival_ms, num_requests, config.rng("bench:serving")
    )
    service_rng = config.rng("bench:service")
    start = time.perf_counter()
    simulate(arrivals, mean_service_ms, num_cores, service_rng)
    seconds = time.perf_counter() - start
    return {"requests": float(num_requests), "seconds": seconds,
            "requests_per_min": num_requests / seconds * 60.0}


def _wall_benchmarks(mode: str, repeats: int) -> List[Benchmark]:
    """Engine throughput wall clocks, median of ``repeats`` trials each."""
    num_lines = 100_000 if mode == "smoke" else 800_000
    emb_args = (0.01, 8, 1) if mode == "smoke" else (0.05, 16, 4)
    serving_requests = 100_000 if mode == "smoke" else 2_000_000
    cases = [
        ("hierarchy", lambda: bench_hierarchy(num_lines), "lines_per_sec",
         "lines/s"),
        ("embedding", lambda: bench_embedding(*emb_args), "lines_per_sec",
         "lines/s"),
        ("embedding_hwpf",
         lambda: bench_embedding(*emb_args, hw_prefetch=True),
         "lines_per_sec", "lines/s"),
        ("embedding_swpf",
         lambda: bench_embedding(
             *emb_args, hw_prefetch=True, plan=PAPER_SWPF.plan()
         ),
         "lines_per_sec", "lines/s"),
        ("serving", lambda: bench_serving(serving_requests),
         "requests_per_min", "req/min"),
    ]
    return [
        _wall(
            f"engine.{bench}.fast.{rate_key}",
            median([runner()[rate_key] for _ in range(repeats)]),
            unit,
        )
        for bench, runner, rate_key, unit in cases
    ]


def _scheme_benchmarks(mode: str) -> List[Benchmark]:
    """MP-HT / DP-HT / Integrated speedups (exact simulator outputs)."""
    scale, batch_size, num_batches = (
        (0.01, 8, 1) if mode == "smoke" else (0.02, 16, 2)
    )
    config = SimConfig(seed=1234)
    wl = build_workload(
        "rm2_1", "low", scale=scale, batch_size=batch_size,
        num_batches=num_batches, config=config,
    )
    spec = get_platform("csl")
    results = evaluate_all_schemes(
        wl.model, wl.trace, wl.amap, spec,
        schemes=("baseline", "dp_ht", "mp_ht", "integrated"),
    )
    base = results["baseline"]
    return [
        Benchmark(
            name=f"scheme.{scheme}.speedup",
            value=results[scheme].speedup_over(base),
            unit="x",
            direction="higher",
        )
        for scheme in ("dp_ht", "mp_ht", "integrated")
    ]


def _resilient_scenario(num_requests: int):
    """The pinned resilience scenario on a 4-core box: bandwidth
    degradation + arrival burst + stragglers against a retry/shed policy
    and a degradation controller.

    Returns ``(arrivals, make)``: ``make()`` gives fresh ``fault_plan`` /
    ``policy`` / ``controller`` keyword arguments for one run (plans and
    controllers carry run state).
    """
    mean_service_ms = 5.0
    num_cores = 4
    interarrival_ms = mean_service_ms / (num_cores * 0.6)
    arrivals = poisson_arrivals(
        interarrival_ms, num_requests, SimConfig(seed=99).rng("bench:arrivals")
    )
    horizon_ms = num_requests * interarrival_ms
    policy = ServingPolicy(
        deadline_ms=5.0 * mean_service_ms,
        timeout_ms=5.0 * mean_service_ms,
        max_retries=1,
        retry_backoff_ms=mean_service_ms,
        max_queue_depth=20 * num_cores,
    )

    def make() -> Dict[str, object]:
        plan = FaultPlan(
            [
                BandwidthDegradation(0.25 * horizon_ms, 0.6 * horizon_ms, 2.5),
                ArrivalBurst(
                    0.4 * horizon_ms, num_requests // 4, interarrival_ms / 5.0
                ),
                Stragglers(0.05, 5.0, tail_alpha=1.5),
            ],
            seed=99,
        )
        ladder = scheme_ladder(
            {"baseline": 1.0, "sw_pf": 0.8, "integrated": 0.65}, batch_scale=0.6
        )
        controller = DegradationController(
            ladder,
            sla_ms=policy.deadline_ms,
            window=48,
            min_samples=12,
            escalate_margin=0.75,
            recover_margin=0.4,
            cooldown=256,
        )
        return {"fault_plan": plan, "policy": policy, "controller": controller}

    return arrivals, make


def _serving_benchmarks(mode: str) -> List[Benchmark]:
    """Tail latency + goodput of one pinned resilience scenario (exact)."""
    num_requests = 400 if mode == "smoke" else 2000
    mean_service_ms = 5.0
    num_cores = 4
    config = SimConfig(seed=99)
    arrivals, make = _resilient_scenario(num_requests)

    fast = simulate_server(
        arrivals, mean_service_ms, num_cores, config.rng("bench:fast"),
        label="bench:fast",
    )
    resilient = simulate_server(
        arrivals, mean_service_ms, num_cores, config.rng("bench:resilient"),
        label="bench:resilient", **make(),
    )
    return [
        Benchmark("serving.fast.p95_ms", fast.p95_ms, "ms", direction="lower"),
        Benchmark(
            "serving.resilient.p50_ms", resilient.p50_ms, "ms", direction="lower"
        ),
        Benchmark(
            "serving.resilient.p95_ms", resilient.p95_ms, "ms", direction="lower"
        ),
        Benchmark(
            "serving.resilient.p99_ms", resilient.p99_ms, "ms", direction="lower"
        ),
        Benchmark(
            "serving.resilient.goodput", resilient.goodput, "frac",
            direction="higher",
        ),
    ]


def resilient_loop_rate(
    num_requests: int, repeats: int, simulate: Callable = simulate_server
) -> float:
    """Simulated requests per wall-clock minute through the resilient loop
    on the pinned resilience scenario (burst requests included),
    observation off; median of ``repeats`` runs.  ``simulate`` is the
    simulator timed, called like :func:`simulate_server`."""
    arrivals, make = _resilient_scenario(num_requests)
    config = SimConfig(seed=99)
    rates = []
    for _ in range(repeats):
        kwargs = make()
        start = time.perf_counter()
        result = simulate(
            arrivals, 5.0, 4, config.rng("bench:resilient"), **kwargs
        )
        rates.append(
            result.offered_requests * 60.0 / (time.perf_counter() - start)
        )
    return median(rates)


def _resilient_loop_benchmarks(mode: str, repeats: int) -> List[Benchmark]:
    """Resilient-loop throughput (kind ``wall``)."""
    value = resilient_loop_rate(20_000 if mode == "smoke" else 200_000, repeats)
    return [_wall("serving.resilient.requests_per_min", value, "req/min")]


def _node_kill_cluster(num_requests: int, label: str):
    """The pinned node-kill scenario: a replicated, hedged 4-node cluster
    (seed 77) whose node 1 crashes over 25-60% of the horizon.

    Returns ``(cluster, arrivals, horizon_ms)``; the fault plan is
    ``cluster.config.faults``.
    """
    call_ms = 2.0
    num_nodes, cores = 4, 4
    interarrival_ms = 2.0 * call_ms / (num_nodes * cores * 0.55)
    arrivals = poisson_arrivals(
        interarrival_ms, num_requests, SimConfig(seed=77).rng("bench:cluster")
    )
    horizon_ms = num_requests * interarrival_ms
    cluster = ClusterSim(
        ClusterConfig(
            num_nodes=num_nodes,
            cores_per_node=cores,
            mean_service_ms=call_ms,
            num_shards=8,
            replication=2,
            gather_width=2,
            hop_ms=0.1,
            call_timeout_ms=25.0,
            deadline_ms=100.0,
            placement="hotness",
            routing="least_loaded",
            hedge=HedgePolicy(quantile=95.0, min_ms=6.0, window=128),
            faults=ClusterFaultPlan(
                [NodeCrash(1, 0.25 * horizon_ms, 0.6 * horizon_ms)], seed=77
            ),
            seed=77,
            label=label,
        )
    )
    return cluster, arrivals, horizon_ms


def _cluster_benchmarks(mode: str) -> List[Benchmark]:
    """Fleet goodput/tail of the pinned node-kill scenario (exact).

    The gate watches that the cluster's goodput and quality tail stay put
    while it rides out the crash — the headline property of the
    ``cluster_resilience`` experiment, pinned.
    """
    cluster, arrivals, _ = _node_kill_cluster(
        400 if mode == "smoke" else 2000, "bench:cluster"
    )
    result = cluster.run(arrivals)
    return [
        Benchmark(
            "cluster.resilient.goodput", result.goodput, "frac",
            direction="higher",
        ),
        Benchmark(
            "cluster.resilient.quality_p95_ms",
            result.quality_percentile(95.0), "ms", direction="lower",
        ),
        Benchmark(
            "cluster.resilient.p99_ms", result.p99_ms, "ms", direction="lower"
        ),
    ]


def _cluster16_benchmarks(mode: str, repeats: int) -> List[Benchmark]:
    """16-node cluster loop throughput (kind ``wall``).

    ``serving.cluster16.requests_per_min``: simulated requests per
    wall-clock minute through the multi-node loop, median of ``repeats``
    runs of the ``cluster16_nodekill`` benchmark workload's four episodes
    on its default seed (``bench/workloads.py``: 16 nodes x 4 cores, 32
    shards, replication 2, hotness placement, least-loaded routing,
    hedging, node 1 down over 25-60% of the horizon, 35% offered load;
    750 requests an episode in smoke mode, 7,500 in full).
    """
    episodes = _cluster_setup(DEFAULT_SEED, mode == "smoke")
    num_requests = sum(arrivals.size for _, arrivals in episodes)
    rates = []
    for _ in range(repeats):
        start = time.perf_counter()
        for cluster, arrivals in episodes:
            cluster.run(arrivals)
        rates.append(num_requests * 60.0 / (time.perf_counter() - start))
    return [
        _wall("serving.cluster16.requests_per_min", median(rates), "req/min")
    ]


def _fleet_benchmarks(mode: str, repeats: int) -> List[Benchmark]:
    """Fleet-observability overheads and a pinned detection-quality run.

    Two wall clocks bound what the tracing layer may cost — merging a
    realistic span forest (request -> gather -> route/attempt, the shape
    a hedged cluster run produces) and pushing windowed samples through
    a drift detector — plus exact sim outputs pinning the observatory's
    detection quality on the same node-kill scenario the cluster
    benchmarks ride.
    """
    out: List[Benchmark] = []

    merge_requests = 2_000 if mode == "smoke" else 10_000

    def build_forest() -> Tuple[List[FleetSpan], Dict[int, List[FleetSpan]]]:
        """Router-side spans and per-node attempts, as a cluster run hands
        them to ``merge_spans``."""
        router: List[FleetSpan] = []
        nodes: Dict[int, List[FleetSpan]] = {}
        for req in range(merge_requests):
            t, rid = 0.5 * req, f"0:{req}"
            router.append(FleetSpan(rid, None, "req", "request", None, t, t + 2.1))
            for k in range(2):
                sid, node = f"{rid}/g{k}", (req + k) % 4
                router.append(FleetSpan(sid, rid, "gather", "gather", None, t, t + 2.0))
                router.append(FleetSpan(f"{sid}/r0", sid, "route", "route", node, t, t))
                nodes.setdefault(node, []).append(
                    FleetSpan(f"{sid}/a0", sid, "attempt", "attempt", node, t, t + 2.0)
                )
        return router, nodes

    rates = []
    for _ in range(repeats):
        router, nodes = build_forest()
        num_spans = len(router) + sum(len(spans) for spans in nodes.values())
        start = time.perf_counter()
        merge_spans(router, nodes)
        elapsed = time.perf_counter() - start
        rates.append(num_spans / elapsed)
    out.append(
        _wall("obs.fleet.trace_merge.spans_per_sec", median(rates), "spans/s")
    )

    updates = 50_000 if mode == "smoke" else 200_000
    samples = 1.0 + 0.1 * SimConfig(seed=7).rng(
        "bench:detector"
    ).standard_normal(updates)
    rates = []
    for _ in range(repeats):
        detector = MeanShiftDetector("bench.signal", direction="up")
        start = time.perf_counter()
        for j in range(updates):
            detector.update(float(j), float(samples[j]))
        elapsed = time.perf_counter() - start
        rates.append(updates / elapsed)
    out.append(
        _wall("obs.fleet.detector.updates_per_sec", median(rates), "updates/s")
    )

    # Detection quality, exact: the _cluster_benchmarks node-kill run,
    # replayed observed, scored against the fault plan's ground truth.
    cluster, arrivals, horizon_ms = _node_kill_cluster(
        2000 if mode == "smoke" else 10000, "bench:fleet"
    )
    log = RequestLog()
    with session(Observation(requests=log)):
        cluster.run(arrivals)
    records = log.runs[-1].records
    window_ms = horizon_ms / 60
    monitor = FleetMonitor(cluster.config.num_nodes)
    events = monitor.run(
        node_window_stats(records, window_ms, horizon_ms), window_ms
    )
    score = score_detections(
        events, cluster.config.faults.windows(), 2 * window_ms
    )
    mttd = score["mttd_ms"]
    out.append(
        Benchmark(
            name="obs.fleet.detection.recall",
            value=float(score["recall"]),
            unit="frac",
            direction="higher",
        )
    )
    out.append(
        Benchmark(
            name="obs.fleet.detection.mttd_ms",
            # Nothing detected pins the worst case (the full horizon)
            # rather than dropping the benchmark.
            value=float(mttd) if mttd is not None else horizon_ms,
            unit="ms",
            direction="lower",
        )
    )
    return out


def _critpath_benchmarks(mode: str, repeats: int) -> List[Benchmark]:
    """Critical-path extraction cost and what-if accuracy, pinned.

    One wall clock bounds what cluster attribution costs (requests
    extracted per second over a pinned node-kill cluster log; the
    single-box rate is in :func:`_request_log_benchmarks`), and two
    exact sim outputs pin the observatory's analytic quality: the
    fraction of requests whose segments conserve exactly, and the worst
    relative error any *gated* what-if prediction made against its
    actual re-run in the ``critpath_observatory`` scenarios.
    """
    from repro.experiments.critpath_observatory import (
        GATED_KNOBS,
        _scenarios,
        run as critpath_run,
    )
    num_requests = 1500 if mode == "smoke" else 6000
    config = SimConfig(seed=7)
    report = critpath_run(config=config, num_requests=num_requests)
    conservation = [r for r in report.rows if r["kind"] == "conservation"]
    total = sum(int(r["requests"]) for r in conservation) or 1
    violations = sum(int(r["violations"]) for r in conservation)
    errors = [
        abs(float(r["delta_frac"]))
        for r in report.rows
        if r["kind"] == "whatif"
        and r.get("delta_frac") is not None
        and r["knob"] in GATED_KNOBS
    ]
    out = [
        Benchmark(
            "obs.critpath.conserved_frac",
            1.0 - violations / total, "frac", direction="higher",
        ),
        Benchmark(
            "obs.critpath.whatif.max_err_frac",
            max(errors), "frac", direction="lower",
            # Prediction error legitimately wobbles as the estimators
            # evolve; only a loss of more than 5 points is a regression.
            noise_floor=0.05,
        ),
    ]

    scenario_cfg = _scenarios(num_requests * 0.9, 2.0, 4, 4, 8)[0][1]
    arrivals = config.rng("critpath:arrivals").exponential(
        0.9, size=num_requests
    ).cumsum()
    log = RequestLog()
    with session(Observation(requests=log)):
        ClusterSim(scenario_cfg).run(arrivals)
    # Built once, outside the clock: the row times extraction alone.
    records = list(log.runs[-1].records)
    rates = []
    for _ in range(repeats):
        start = time.perf_counter()
        extract_paths(records)
        elapsed = time.perf_counter() - start
        rates.append(len(records) / elapsed)
    out.append(
        _wall(
            "obs.critpath.extract_cluster.requests_per_sec", median(rates),
            "req/s",
        )
    )
    return out


def _request_log_benchmarks(mode: str, repeats: int) -> List[Benchmark]:
    """What leaving the request log on costs a single box (kind ``wall``).

    ``obs.requests.overhead_x.{plain,resilient}``: wall time of a run with
    the request log on plus critical-path extraction over its log, over
    the wall time of the same run with observation off (median of
    ``repeats`` alternating pairs), for the plain fast path and the
    pinned resilience scenario.  ``obs.critpath.extract.requests_per_sec``:
    single-box extraction throughput over the resilient run's log.
    """
    num_requests = 100_000 if mode == "smoke" else 1_000_000
    plain_arrivals = poisson_arrivals(
        5.0 / (64 * 0.9), num_requests, SimConfig(seed=98).rng("bench:arrivals")
    )
    resilient_arrivals, make = _resilient_scenario(num_requests // 5)
    cases = {
        "plain": (plain_arrivals, 64, lambda: {}),
        "resilient": (resilient_arrivals, 4, make),
    }

    def timed(case: str, logged: bool):
        arrivals, cores, kwargs = cases[case]
        rng = SimConfig(seed=98).rng(f"bench:service:{case}")
        start = time.perf_counter()
        if not logged:
            simulate_server(arrivals, 5.0, cores, rng, **kwargs())
            return time.perf_counter() - start, None
        log = RequestLog()
        with session(Observation(requests=log)):
            simulate_server(arrivals, 5.0, cores, rng, **kwargs())
        extract_paths(log.runs[-1].records)
        return time.perf_counter() - start, log.runs[-1].records

    out: List[Benchmark] = []
    records = None
    for case in cases:
        ratios = []
        for k in range(repeats):
            order = (False, True) if k % 2 == 0 else (True, False)
            walls = {}
            for logged in order:
                walls[logged], kept = timed(case, logged)
                records = kept if kept is not None else records
            ratios.append(walls[True] / walls[False])
        out.append(
            _wall(
                f"obs.requests.overhead_x.{case}", median(ratios), "x",
                direction="lower",
            )
        )
    rates = []  # over the last logged run: the resilient one
    for _ in range(repeats):
        start = time.perf_counter()
        extract_paths(records)
        rates.append(len(records) / (time.perf_counter() - start))
    out.append(
        _wall("obs.critpath.extract.requests_per_sec", median(rates), "req/s")
    )
    return out


def _tenant_benchmarks(mode: str) -> List[Benchmark]:
    """Noisy-neighbor defense quality, pinned (exact).

    One seeded locker-vs-QoS run of the ``noisy_neighbor`` experiment:
    the gate watches that the detectors keep finding every injected
    locker window (recall), how fast (MTTD), and that the defense keeps
    restoring no-tenant goodput — the experiment's headline properties.
    """
    num_requests = 1500 if mode == "smoke" else 6000
    report = noisy_run(
        config=SimConfig(seed=77),
        num_requests=num_requests,
        tenants="none,locker",
        defense="static,qos",
        cluster_nodes=1,
    )
    row = next(
        r for r in report.rows
        if r["scenario"] == "locker" and r["mode"] == "qos"
    )
    windows = int(row["tenant_windows"]) or 1
    horizon_ms = num_requests * 10.0  # worst-case MTTD stand-in
    mttd = row["mttd_ms"]
    return [
        Benchmark(
            "tenants.detection.recall",
            float(row["windows_detected"]) / windows, "frac",
            direction="higher",
        ),
        Benchmark(
            "tenants.detection.mttd_ms",
            float(mttd) if mttd is not None else horizon_ms, "ms",
            direction="lower",
        ),
        Benchmark(
            "tenants.qos.goodput_recovery",
            float(row["goodput_vs_no_tenant"]), "frac", direction="higher",
        ),
    ]


def run_suite(mode: str, repeats: int) -> Dict[str, object]:
    """Run the pinned suite; return the (schema-valid) history record."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    benchmarks: List[Benchmark] = []
    benchmarks.extend(_wall_benchmarks(mode, repeats))
    benchmarks.extend(_scheme_benchmarks(mode))
    benchmarks.extend(_serving_benchmarks(mode))
    benchmarks.extend(_resilient_loop_benchmarks(mode, repeats))
    benchmarks.extend(_cluster_benchmarks(mode))
    benchmarks.extend(_cluster16_benchmarks(mode, repeats))
    benchmarks.extend(_fleet_benchmarks(mode, repeats))
    benchmarks.extend(_critpath_benchmarks(mode, repeats))
    benchmarks.extend(_request_log_benchmarks(mode, repeats))
    benchmarks.extend(_tenant_benchmarks(mode))
    for bench in benchmarks:
        print(
            f"{bench.name:42s} {bench.value:>14,.4g} {bench.unit:<8s} "
            f"[{bench.kind}]"
        )
    record = make_record(
        mode=mode,
        repeats=repeats,
        benchmarks=benchmarks,
        host={
            "python": platform_mod.python_version(),
            "numpy": np.__version__,
            "machine": platform_mod.machine(),
        },
    )
    schema = json.loads(SCHEMA_PATH.read_text())
    errors = validate_def(record, schema, "bench_record")
    if errors:  # pragma: no cover - suite bug, not an input condition
        raise RuntimeError(f"bench record fails its own schema: {errors}")
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--mode", choices=MODES, default="smoke",
        help="suite size: smoke (CI, seconds) or full (minutes)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, metavar="K",
        help="wall-clock benchmarks record the median of K trials (default 3)",
    )
    parser.add_argument(
        "--history", type=Path, default=DEFAULT_HISTORY,
        help=f"history JSONL to append to (default {DEFAULT_HISTORY.name})",
    )
    parser.add_argument(
        "--no-append", action="store_true",
        help="print the record without touching the history file",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    record = run_suite(args.mode, args.repeats)
    if args.no_append:
        print(json.dumps(record, indent=2))
    else:
        append_record(args.history, record)
        print(
            f"appended {len(record['benchmarks'])} benchmark(s) "
            f"to {args.history}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
