"""The flat-state cluster loop against its object-per-call oracle.

``cluster_oracle.run_cluster`` is a frozen copy of the loop that
``ClusterSim._run_cluster`` replaced.  Every case runs through both and
must agree bit for bit: every ``ClusterResult`` field (arrays by their
bytes, the latency histogram by buckets and moments) with hooks off, and
also the sha256 of the request-log JSONL, the Chrome trace and the
metrics export with hooks on.  Observed, the oracle records through the
incremental span recorder the package replaced, so the hooks-on
comparison holds the package's row recorder to the old one: with a
request log, with a trace only, and with a bounded log or tracer.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

import cluster_oracle
from repro.config import SimConfig
from repro.obs.hooks import Observation, session
from repro.obs.metrics import Histogram
from repro.obs.requests import RequestLog
from repro.obs.tracer import Tracer
from repro.serving.cluster import (
    PLACEMENTS,
    ClusterConfig,
    ClusterResult,
    ClusterSim,
)
from repro.serving.degradation import DegradationController, scheme_ladder
from repro.serving.faults import (
    ClusterFaultPlan,
    NodeCrash,
    NodePartition,
    NodeSlow,
    NodeTenant,
)
from repro.serving.router import ROUTING_POLICIES, HealthPolicy, HedgePolicy
from repro.serving.workload import poisson_arrivals

N = 600
INTERARRIVAL = 0.4
HORIZON = N * INTERARRIVAL
HEDGE = HedgePolicy(quantile=90.0, min_ms=1.5, window=64)


def _controller(node):
    return DegradationController(
        scheme_ladder({"baseline": 1.0, "sw_pf": 0.8, "integrated": 0.65}),
        sla_ms=3.0, window=16, min_samples=4,
        escalate_margin=0.75, recover_margin=0.4, cooldown=32,
    )


def _kill():
    return ClusterFaultPlan(
        [NodeCrash(1, 0.25 * HORIZON, 0.6 * HORIZON)], seed=11
    )


def _partition():
    return ClusterFaultPlan(
        [NodePartition(2, 0.2 * HORIZON, 0.5 * HORIZON)], seed=11
    )


def _slow_and_tenant():
    return ClusterFaultPlan(
        [
            NodeSlow(0, 0.1 * HORIZON, 0.6 * HORIZON, factor=6.0),
            NodeTenant(
                2, 0.4 * HORIZON, 0.9 * HORIZON, factor=3.0, tenant="locker"
            ),
        ],
        seed=11,
    )


#: name -> (ClusterConfig overrides, what the run must have exercised).
SCENARIOS = {
    "no_fault": ({}, lambda r: r.outcome_count("completed") == N),
    "kill_replication1": (
        dict(replication=1, faults=_kill()),
        lambda r: r.outcome_count("degraded") > 0,
    ),
    "kill_replication2": (
        dict(faults=_kill(), hedge=HEDGE),
        lambda r: r.failovers > 0 and r.node_stats[1].lost_calls > 0,
    ),
    "partition": (
        dict(faults=_partition(), hedge=HEDGE),
        lambda r: r.partition_failures > 0 and r.ejections > 0 and r.probes > 0,
    ),
    "slow_tenant_hedge1": (
        dict(faults=_slow_and_tenant(), hedge=HEDGE),
        lambda r: r.hedges_won > 0,
    ),
    "slow_tenant_hedge2": (
        dict(
            faults=_slow_and_tenant(),
            hedge=dataclasses.replace(HEDGE, max_hedges=2),
        ),
        lambda r: r.hedges_issued > 0,
    ),
    "shedding": (
        dict(max_outstanding=4, faults=_kill(), hedge=HEDGE),
        lambda r: r.outcome_count("shed") > 0,
    ),
    "controllers": (
        dict(
            controller_factory=_controller, faults=_slow_and_tenant(),
            hedge=HEDGE,
        ),
        lambda r: r.hedges_issued > 0,
    ),
    "round_robin": (
        dict(routing="round_robin", faults=_kill(), hedge=HEDGE),
        lambda r: r.failovers > 0,
    ),
    "striped": (
        dict(placement="striped", faults=_slow_and_tenant(), hedge=HEDGE),
        lambda r: r.hedges_issued > 0,
    ),
    "hotness": (
        dict(
            placement="hotness", cache_scores=(1.0, 0.6, 0.9, 0.5),
            faults=_kill(), hedge=HEDGE,
        ),
        lambda r: r.failovers > 0,
    ),
    "no_partial_results": (
        dict(replication=1, partial_results=False, faults=_kill()),
        lambda r: r.outcome_count("failed") > 0
        and r.outcome_count("degraded") == 0,
    ),
}


def _config(**overrides):
    base = dict(
        num_nodes=4, cores_per_node=2, mean_service_ms=1.0, num_shards=8,
        replication=2, gather_width=2, hop_ms=0.05, call_timeout_ms=12.0,
        deadline_ms=50.0, routing="least_loaded", seed=11, label="t:flat",
    )
    base.update(overrides)
    return ClusterConfig(**base)


def _arrivals():
    return poisson_arrivals(INTERARRIVAL, N, SimConfig(seed=7).rng("t:flat"))


def _assert_identical(got: ClusterResult, want: ClusterResult) -> None:
    for f in dataclasses.fields(ClusterResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, f.name
            assert a.tobytes() == b.tobytes(), f.name
        elif isinstance(b, Histogram):
            assert a.buckets.tobytes() == b.buckets.tobytes(), f.name
            assert (a.count, a.sum, a.min, a.max) == (
                b.count, b.sum, b.min, b.max
            ), f.name
        else:
            assert a == b, f.name


def _flat(sim, arrivals):
    return sim.run(arrivals)


#: name -> the observation a hooks-on case runs under.
OBSERVATIONS = {
    "log": lambda: Observation(requests=RequestLog()),
    # No request log: the fleet trace alone, its ids under run index 0.
    "trace_only": lambda: Observation(),
    # The records are truncated; the span tree still covers every request.
    "bounded_log": lambda: Observation(requests=RequestLog(max_requests=N // 3)),
    # The tracer fills part-way through the fleet spans.
    "bounded_tracer": lambda: Observation(
        tracer=Tracer(max_events=2_000), requests=RequestLog()
    ),
}


def _observed(run, config, arrivals, tmp_path, tag, observation="log"):
    """Run with hooks on; return the result, the observation and the
    sha256 of each export."""
    obs = OBSERVATIONS[observation]()
    with session(obs):
        result = run(ClusterSim(config), arrivals)
    exports = {
        "trace": (obs.tracer.to_chrome, tmp_path / f"{tag}.trace.json"),
        "metrics": (obs.metrics.to_jsonl, tmp_path / f"{tag}.metrics.jsonl"),
    }
    if obs.requests is not None:
        exports["requests"] = (
            obs.requests.to_jsonl, tmp_path / f"{tag}.req.jsonl"
        )
    for write, path in exports.values():
        write(path)
    return result, obs, {
        key: hashlib.sha256(path.read_bytes()).hexdigest()
        for key, (_, path) in exports.items()
    }


def _check(config, arrivals, tmp_path=None, observation="log"):
    """Both loops agree; with ``tmp_path``, hooks on and exports too.
    Returns the package's result (and, hooks on, its observation)."""
    if tmp_path is None:
        got = _flat(ClusterSim(config), arrivals)
        want = cluster_oracle.run_cluster(ClusterSim(config), arrivals)
        _assert_identical(got, want)
        return got
    got, obs, got_hashes = _observed(
        _flat, config, arrivals, tmp_path, "flat", observation
    )
    want, _, want_hashes = _observed(
        cluster_oracle.run_cluster, config, arrivals, tmp_path, "oracle",
        observation,
    )
    _assert_identical(got, want)
    assert got_hashes == want_hashes
    return got, obs


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_matches_oracle_hooks_off(name):
    overrides, exercised = SCENARIOS[name]
    result = _check(_config(**overrides), _arrivals())
    assert exercised(result)


#: (scenario, observation) per hooks-on case; a request log unless named.
HOOKS_ON_CASES = [pytest.param(name, "log", id=name) for name in sorted(SCENARIOS)] + [
    pytest.param(name, observation, id=f"{name}-{observation}")
    for observation in ("trace_only", "bounded_log", "bounded_tracer")
    for name in ("partition", "shedding")
]


@pytest.mark.parametrize("name, observation", HOOKS_ON_CASES)
def test_matches_oracle_hooks_on(name, observation, tmp_path):
    overrides, _ = SCENARIOS[name]
    _, obs = _check(_config(**overrides), _arrivals(), tmp_path, observation)
    roots = [e for e in obs.tracer.events if e.category == "fleet.request"]
    if observation == "trace_only":
        assert roots and all(e.args["span_id"].startswith("0:") for e in roots)
    elif observation == "bounded_log":
        assert obs.requests.num_requests == N // 3
        assert obs.requests.dropped == N - N // 3
        assert len(roots) == N
    elif observation == "bounded_tracer":
        assert obs.tracer.dropped > 0
        assert len(obs.tracer.events) == obs.tracer.max_events


def _fuzz_case(seed):
    """A random small cluster, fault plan, hedge policy and arrival stream."""
    rng = np.random.default_rng([31, seed])
    num_nodes = int(rng.integers(2, 6))
    num_shards = int(rng.integers(2, 9))
    n = int(rng.integers(120, 260))
    arrivals = np.cumsum(rng.exponential(float(rng.uniform(0.2, 0.8)), n))
    # Every third case snaps times to a 0.25 ms grid with zero hop latency,
    # so arrivals, deliveries, crashes and timers collide and every
    # tie-break rule is exercised.
    grid = seed % 3 == 0
    if grid:
        arrivals = np.round(arrivals * 4.0) / 4.0
    horizon = float(arrivals[-1])
    faults = []
    for _ in range(int(rng.integers(0, 4))):
        node = int(rng.integers(num_nodes))
        start, end = sorted(rng.uniform(0.0, horizon, 2).tolist())
        if grid:
            start, end = round(start * 4.0) / 4.0, round(end * 4.0) / 4.0
        end = max(end, start + 0.25)
        kind = int(rng.integers(4))
        if kind == 0:
            faults.append(NodeCrash(node, start, end))
        elif kind == 1:
            faults.append(NodePartition(node, start, end))
        elif kind == 2:
            faults.append(
                NodeSlow(node, start, end, factor=float(rng.uniform(1.5, 6.0)))
            )
        else:
            faults.append(
                NodeTenant(
                    node, start, end, factor=float(rng.uniform(1.5, 4.0)),
                    tenant="fuzz",
                )
            )
    hedge = None
    if rng.random() < 0.7:
        hedge = HedgePolicy(
            quantile=float(rng.uniform(50.0, 99.0)),
            min_ms=float(rng.uniform(0.3, 3.0)),
            window=int(rng.integers(4, 65)),
            max_hedges=int(rng.integers(1, 4)),
        )
    config = ClusterConfig(
        num_nodes=num_nodes,
        cores_per_node=int(rng.integers(1, 4)),
        mean_service_ms=float(rng.uniform(0.5, 2.0)),
        num_shards=num_shards,
        replication=int(rng.integers(1, num_nodes + 1)),
        gather_width=int(rng.integers(1, min(num_shards, 3) + 1)),
        hop_ms=0.0 if grid else float(rng.uniform(0.0, 0.3)),
        call_timeout_ms=float(rng.uniform(2.0, 15.0)),
        deadline_ms=20.0,
        max_outstanding=(
            int(rng.integers(2, 12)) if rng.random() < 0.4 else None
        ),
        placement=PLACEMENTS[int(rng.integers(len(PLACEMENTS)))],
        routing=ROUTING_POLICIES[int(rng.integers(len(ROUTING_POLICIES)))],
        hedge=hedge,
        health=HealthPolicy(
            eject_after=int(rng.integers(1, 4)),
            probe_interval_ms=float(rng.uniform(2.0, 30.0)),
        ),
        faults=ClusterFaultPlan(faults, seed=seed),
        partial_results=bool(rng.random() < 0.7),
        controller_factory=_controller if rng.random() < 0.3 else None,
        seed=seed,
    )
    return config, arrivals


@pytest.mark.parametrize("seed", range(30))
def test_fuzz_matches_oracle(seed, tmp_path):
    config, arrivals = _fuzz_case(seed)
    # Every fifth case also compares the request log and the fleet trace.
    _check(config, arrivals, tmp_path if seed % 5 == 0 else None)


def _slice_case(seed):
    """Hedged calls meeting crashes and slow nodes, hedge floors above the
    call timeout, replication >= 3 and 2-3 hedges per call.

    A failing attempt here often has a sibling still racing, and a hedge
    timer is armed only for a late call or one on a node that may crash:
    the floor puts every other call's delivery before its timer.
    """
    rng = np.random.default_rng([37, seed])
    num_nodes = int(rng.integers(3, 6))
    cores = int(rng.integers(1, 3))
    num_shards = int(rng.integers(3, 9))
    width = int(rng.integers(1, 4))
    service = float(rng.uniform(0.8, 2.0))
    # Offered load 0.3-0.7 of the fleet before faults and hedges.
    mean_gap = width * service / (num_nodes * cores * rng.uniform(0.3, 0.7))
    n = int(rng.integers(150, 260))
    arrivals = np.cumsum(rng.exponential(float(mean_gap), n))
    horizon = float(arrivals[-1])
    call_timeout = float(rng.uniform(2.0, 5.0))
    faults = []
    for k in range(int(rng.integers(2, 5))):
        node = int(rng.integers(num_nodes))
        start = float(rng.uniform(0.0, horizon))
        end = start + horizon * float(rng.uniform(0.05, 0.3))
        if k % 2 == 0:
            faults.append(NodeCrash(node, start, end))
        else:
            faults.append(
                NodeSlow(node, start, end, factor=float(rng.uniform(2.0, 6.0)))
            )
    config = ClusterConfig(
        num_nodes=num_nodes,
        cores_per_node=cores,
        mean_service_ms=service,
        num_shards=num_shards,
        replication=int(rng.integers(3, num_nodes + 1)),
        gather_width=width,
        hop_ms=float(rng.uniform(0.0, 0.2)),
        call_timeout_ms=call_timeout,
        deadline_ms=20.0,
        routing=ROUTING_POLICIES[seed % len(ROUTING_POLICIES)],
        hedge=HedgePolicy(
            quantile=float(rng.uniform(50.0, 99.0)),
            min_ms=call_timeout * float(rng.uniform(1.05, 2.0)),
            window=int(rng.integers(4, 65)),
            max_hedges=int(rng.integers(2, 4)),
        ),
        health=HealthPolicy(
            eject_after=int(rng.integers(2, 5)),
            probe_interval_ms=float(rng.uniform(2.0, 20.0)),
        ),
        faults=ClusterFaultPlan(faults, seed=seed),
        seed=seed,
    )
    return config, arrivals


SLICE_SEEDS = range(12)


@pytest.mark.parametrize("seed", SLICE_SEEDS)
def test_slice_matches_oracle(seed, tmp_path):
    config, arrivals = _slice_case(seed)
    _check(config, arrivals, tmp_path if seed % 4 == 0 else None)


def test_slice_fails_hedges_and_fails_over():
    results = [_flat(ClusterSim(c), a) for c, a in map(_slice_case, SLICE_SEEDS)]
    assert sum(r.hedges_failed for r in results) > 0
    assert sum(r.failovers for r in results) > 0
