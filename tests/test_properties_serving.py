"""Property-based tests on the serving stack (batcher, server, cluster)."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs.hooks import Observation, session
from repro.obs.requests import RequestLog
from repro.serving.batcher import chunk_queries
from repro.serving.cluster import (
    CL_COMPLETED,
    CL_DEGRADED,
    CLUSTER_OUTCOME_NAMES,
    ClusterConfig,
    ClusterSim,
    ShardMap,
)
from repro.serving.degradation import DegradationController, scheme_ladder
from repro.serving.faults import (
    ArrivalBurst,
    ClusterFaultPlan,
    CoreFailure,
    FaultPlan,
    NodeCrash,
    NodePartition,
    NodeSlow,
    Stragglers,
)
from repro.serving.router import HedgePolicy
from repro.serving.server import OUTCOME_NAMES, ServingPolicy, simulate_server
from repro.serving.workload import poisson_arrivals

SETTINGS = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

arrival_lists = st.lists(
    st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=150
).map(sorted)


@SETTINGS
@given(arrival_lists, st.integers(1, 10), st.floats(0.5, 100.0))
def test_batcher_partitions_queries(arrivals, batch_size, timeout):
    """Every query lands in exactly one batch, in order, within limits."""
    arrivals = np.asarray(arrivals)
    batches = chunk_queries(arrivals, batch_size, timeout)
    flattened = np.concatenate([b.query_arrivals_ms for b in batches])
    assert np.array_equal(flattened, arrivals)
    for batch in batches:
        assert 1 <= batch.size <= batch_size
        assert batch.dispatch_ms >= batch.query_arrivals_ms.max() - 1e-9
        assert batch.max_queueing_delay_ms <= timeout + 1e-9


@SETTINGS
@given(arrival_lists, st.integers(1, 10), st.floats(0.5, 100.0))
def test_batcher_dispatches_monotone(arrivals, batch_size, timeout):
    batches = chunk_queries(np.asarray(arrivals), batch_size, timeout)
    dispatches = [b.dispatch_ms for b in batches]
    assert dispatches == sorted(dispatches)


@SETTINGS
@given(
    st.integers(0, 2**31 - 1),
    st.floats(1.0, 50.0),
    st.integers(1, 16),
)
def test_server_conservation_laws(seed, service_ms, cores):
    """No request served before arrival; cores never exceed capacity."""
    rng = np.random.default_rng(seed)
    arrivals = poisson_arrivals(5.0, 200, rng)
    result = simulate_server(arrivals, service_ms, cores, rng)
    assert np.all(result.waits_ms >= -1e-9)
    assert np.all(result.latencies_ms >= result.services_ms - 1e-9)
    # Work conservation: total busy time fits in cores x makespan.
    makespan = float((arrivals + result.latencies_ms).max())
    assert result.services_ms.sum() <= cores * makespan + 1e-6


@SETTINGS
@given(st.integers(0, 2**31 - 1), st.integers(1, 8))
def test_server_fifo_order_of_starts(seed, cores):
    """FIFO dispatch: start times are non-decreasing in arrival order."""
    rng = np.random.default_rng(seed)
    arrivals = poisson_arrivals(3.0, 100, rng)
    result = simulate_server(arrivals, 10.0, cores, rng)
    starts = arrivals + result.waits_ms
    assert np.all(np.diff(starts) >= -1e-9)


@SETTINGS
@given(st.integers(0, 2**31 - 1))
def test_more_cores_never_hurt(seed):
    rng_arr = np.random.default_rng(seed)
    arrivals = poisson_arrivals(4.0, 150, rng_arr)
    few = simulate_server(arrivals, 12.0, 2, np.random.default_rng(seed + 1))
    many = simulate_server(arrivals, 12.0, 8, np.random.default_rng(seed + 1))
    # With identical service draws, adding cores cannot raise the mean wait.
    assert many.waits_ms.mean() <= few.waits_ms.mean() + 1e-9


# -- outcome conservation ----------------------------------------------------


@SETTINGS
@given(
    seed=st.integers(0, 2**31 - 1),
    cores=st.integers(1, 8),
    utilization=st.floats(0.3, 2.0),
    timeout=st.one_of(st.none(), st.floats(1.0, 30.0)),
    retries=st.integers(0, 3),
    depth=st.one_of(st.none(), st.integers(1, 32)),
    deadline=st.one_of(st.none(), st.floats(5.0, 60.0)),
    shed_expired=st.booleans(),
    core_failure=st.booleans(),
    controlled=st.booleans(),
)
def test_resilient_outcomes_are_conserved(
    seed, cores, utilization, timeout, retries, depth, deadline,
    shed_expired, core_failure, controlled,
):
    """Every offered request, burst-injected ones included, ends in exactly
    one terminal outcome, and the result's accounting agrees with itself."""
    arrivals = poisson_arrivals(
        5.0 / (cores * utilization), 150, np.random.default_rng(seed)
    )
    horizon = float(arrivals[-1])
    # Stragglers keep every example on the resilient path.
    faults = [Stragglers(0.1, 3.0), ArrivalBurst(0.5 * horizon, 20, 0.1)]
    if core_failure:
        faults.append(CoreFailure(0, 0.2 * horizon, 0.6 * horizon))
    policy = ServingPolicy(
        deadline_ms=deadline,
        timeout_ms=timeout,
        max_retries=retries if timeout is not None else 0,
        max_queue_depth=depth,
        shed_expired=shed_expired,
    )
    controller = None
    if controlled:
        controller = DegradationController(
            scheme_ladder({"baseline": 1.0, "sw_pf": 0.8, "integrated": 0.6}),
            sla_ms=10.0, window=16, min_samples=4, cooldown=8,
        )
    result = simulate_server(
        arrivals, 5.0, cores, np.random.default_rng(seed + 1),
        fault_plan=FaultPlan(faults, seed=seed), policy=policy,
        controller=controller,
    )
    offered = arrivals.size + 20
    assert result.offered_requests == offered
    assert result.outcomes.shape == (offered,)
    assert set(result.outcomes.tolist()) <= set(range(len(OUTCOME_NAMES)))
    assert sum(result.outcome_counts.values()) == offered
    assert result.outcome_count("completed") == result.latencies_ms.size
    assert result.retry_counts.shape == (offered,)
    assert np.all(result.retry_counts >= 0)
    assert np.all(result.retry_counts <= policy.max_retries)


@SETTINGS
@given(
    seed=st.integers(0, 2**31 - 1),
    num_nodes=st.integers(2, 6),
    replication=st.integers(1, 3),
    gather_width=st.integers(1, 4),
    utilization=st.floats(0.3, 1.5),
    deadline=st.one_of(st.none(), st.floats(2.0, 40.0)),
    max_outstanding=st.one_of(st.none(), st.integers(1, 64)),
    hedged=st.booleans(),
    partial_results=st.booleans(),
    fault=st.sampled_from(("none", "crash", "partition", "slow")),
)
def test_cluster_outcomes_are_conserved(
    seed, num_nodes, replication, gather_width, utilization, deadline,
    max_outstanding, hedged, partial_results, fault,
):
    """Every offered request ends in exactly one cluster outcome, and the
    latency arrays cover exactly the requests served at that quality."""
    arrivals = poisson_arrivals(
        1.0 / (num_nodes * 2 * utilization), 300, np.random.default_rng(seed)
    )
    horizon = float(arrivals[-1])
    window = (0, 0.2 * horizon, 0.7 * horizon)
    faults = {
        "none": [],
        "crash": [NodeCrash(*window)],
        "partition": [NodePartition(*window)],
        "slow": [NodeSlow(*window, 4.0)],
    }[fault]
    result = ClusterSim(
        ClusterConfig(
            num_nodes=num_nodes, cores_per_node=2, mean_service_ms=1.0,
            num_shards=8, replication=min(replication, num_nodes),
            gather_width=gather_width, hop_ms=0.05, call_timeout_ms=8.0,
            deadline_ms=deadline, max_outstanding=max_outstanding,
            hedge=HedgePolicy(min_ms=0.5) if hedged else None,
            partial_results=partial_results,
            faults=ClusterFaultPlan(faults, seed=seed), seed=seed,
        )
    ).run(arrivals)
    offered = arrivals.size
    assert result.offered_requests == offered
    assert set(result.outcomes.tolist()) <= set(range(len(CLUSTER_OUTCOME_NAMES)))
    assert sum(result.outcome_counts.values()) == offered
    assert result.outcome_count("completed") == result.latencies_ms.size
    assert result.outcome_count("degraded") == result.degraded_latencies_ms.size
    served = (result.outcomes == CL_COMPLETED) | (result.outcomes == CL_DEGRADED)
    assert np.array_equal(np.isfinite(result.request_latency_ms), served)


# -- least-loaded routing, recounted from the request log --------------------


@SETTINGS
@given(
    seed=st.integers(0, 2**31 - 1),
    num_nodes=st.integers(2, 8),
    replication=st.integers(1, 4),
    num_shards=st.integers(2, 12),
    gather_width=st.integers(1, 3),
    cores=st.integers(1, 3),
    utilization=st.floats(0.3, 1.2),
    hotness=st.booleans(),
    hedged=st.booleans(),
)
def test_least_loaded_picks_the_fewest_in_flight_the_log_shows(
    seed, num_nodes, replication, num_shards, gather_width, cores,
    utilization, hotness, hedged,
):
    """Without faults or timeouts no call fails, so every non-hedge
    ``shard_call`` is a primary call with every replica eligible.  Its node
    must hold the fewest calls in flight, the lower id on ties, where a
    node's count is rebuilt from the log alone: +1 per ``shard_call`` to
    it, -1 per ``call_ok`` or ``call_failed`` from it.  Times are
    continuous, so an arrival or a hedge never shares an instant with a
    delivery; the loop delivers before it routes within one instant."""
    config = ClusterConfig(
        num_nodes=num_nodes, cores_per_node=cores, mean_service_ms=1.0,
        num_shards=num_shards, replication=min(replication, num_nodes),
        gather_width=min(gather_width, num_shards), hop_ms=0.05,
        call_timeout_ms=1e9,
        placement="hotness" if hotness else "striped",
        routing="least_loaded",
        hedge=HedgePolicy(quantile=90.0, min_ms=0.5) if hedged else None,
        seed=seed,
    )
    rate = num_nodes * cores * utilization / config.gather_width
    arrivals = poisson_arrivals(1.0 / rate, 300, np.random.default_rng(seed))
    log = RequestLog()
    with session(Observation(requests=log)):
        result = ClusterSim(config).run(arrivals)
    assert result.calls_failed == 0
    replicas = ShardMap(config).replicas
    events = [
        event
        for record in log.runs[-1].records
        for event in record["events"]
        if event["kind"] in ("shard_call", "call_ok", "call_failed")
    ]
    # Stable: one request's calls at one instant keep their log order.
    events.sort(key=lambda e: (e["t_ms"], e["kind"] == "shard_call"))
    in_flight = [0] * num_nodes
    routed = 0
    for event in events:
        node = event["node"]
        if event["kind"] != "shard_call":
            in_flight[node] -= 1
            assert in_flight[node] >= 0
            continue
        if not event["hedge"]:
            fewest = min(replicas[event["shard"]], key=lambda n: (in_flight[n], n))
            assert node == fewest, (event, in_flight)
            routed += 1
        in_flight[node] += 1
    assert routed == result.offered_requests * config.gather_width
    assert in_flight == [0] * num_nodes


# -- queue depth, recounted from the request log -----------------------------


@SETTINGS
@given(
    seed=st.integers(0, 2**31 - 1),
    cores=st.sampled_from([1, 3, 16, 24]),
    utilization=st.floats(0.7, 2.0),
    timeout=st.one_of(st.none(), st.floats(2.0, 40.0)),
    retries=st.integers(0, 2),
    depth=st.integers(1, 48),
    controlled=st.booleans(),
)
def test_shed_depth_is_the_queue_the_log_shows(
    seed, cores, utilization, timeout, retries, depth, controlled
):
    """A ``shed`` event's ``depth`` is the number of requests queued at
    that instant, counted from the log alone: a request is queued from its
    ``arrive``/``retry_arrive`` until its ``dispatch`` or its
    ``timeout_retry``/``timeout``.  Times are continuous, so no two events
    of different requests share an instant."""
    arrivals = poisson_arrivals(
        5.0 / (cores * utilization), 400, np.random.default_rng(seed)
    )
    policy = ServingPolicy(
        timeout_ms=timeout,
        max_retries=retries if timeout is not None else 0,
        retry_backoff_ms=1.3,
        retry_jitter=0.5,
        max_queue_depth=depth,
    )
    controller = None
    if controlled:
        controller = DegradationController(
            scheme_ladder({"baseline": 1.0, "sw_pf": 0.8, "integrated": 0.6}),
            sla_ms=15.0, window=32, min_samples=8, cooldown=64,
        )
    log = RequestLog()
    with session(Observation(requests=log)):
        simulate_server(
            arrivals, 5.0, cores, np.random.default_rng(seed + 1),
            fault_plan=FaultPlan([Stragglers(0.05, 3.0)], seed=seed),
            policy=policy, controller=controller,
        )
    queued = []  # (from, until) of every stay in the queue
    sheds = []
    for record in log.runs[-1].records:
        since = None
        for event in record["events"]:
            kind, t = event["kind"], event["t_ms"]
            if kind in ("arrive", "retry_arrive"):
                since = t
            elif kind in ("dispatch", "timeout_retry", "timeout"):
                if since is not None:
                    queued.append((since, t))
                since = None
            elif kind == "shed":
                sheds.append((t, event["depth"]))
                since = None
            elif kind == "expired":
                since = None
    begins = np.array([b for b, _ in queued])
    ends = np.array([e for _, e in queued])
    for t, logged in sheds:
        assert int(np.count_nonzero((begins < t) & (ends > t))) == logged
