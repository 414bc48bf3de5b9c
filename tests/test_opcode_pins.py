"""Exact cost pins: bytecodes executed in the package's own code per event.

A wall-clock bound cannot resolve a few percent on a noisy host; an opcode
count repeats exactly under one Python minor version, so one extra Python
call per request in a hot loop trips these pins on any host.  Each test
counts, with ``sys.settrace``, the bytecodes executed in frames of
``repro`` only: library frames (numpy's Python wrappers, heapq's
fallbacks) are not counted, so a dependency release cannot trip them.
The counts are pinned for Python 3.11 and the tests skip on any other
version.

The serving episodes are the benchmark's own (``bench/workloads.py``):
smoke episode 0 of ``serve_plain_logged``, ``serve_resilient_logged`` and
``cluster16_nodekill`` on seed 1.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.workloads import (  # noqa: E402
    _cluster_setup,
    _plain_setup,
    _resilient_episode,
)
from repro.config import SimConfig  # noqa: E402
from repro.obs.critpath import extract_paths  # noqa: E402
from repro.obs.hooks import Observation, session  # noqa: E402
from repro.obs.requests import RequestLog  # noqa: E402

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="opcode counts are pinned for 3.11"
)


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


def _episode_run(episode, logged: bool):
    """One benchmark episode, run with or without a request log:
    ``(result, log or None, opcodes)``."""
    make_sim, arrivals, config, k = episode
    sim = make_sim()
    rng = config.rng(f"bench:service:{k}")
    if not logged:
        result, executed = _count_opcodes(lambda: sim.run(arrivals, rng))
        return result, None, executed
    log = RequestLog()
    with session(Observation(requests=log)):
        result, executed = _count_opcodes(lambda: sim.run(arrivals, rng))
    return result, log, executed


def _log_costs(episode, offered: int):
    """Package bytecodes of the logged run plus ``extract_paths`` over its
    log, and of the same episode unlogged: ``(logged, unlogged)``."""
    result, log, run_ops = _episode_run(episode, logged=True)
    paths, extract_ops = _count_opcodes(lambda: extract_paths(log.runs[0].records))
    assert len(paths) == result.offered_requests == offered
    bare, _, bare_ops = _episode_run(episode, logged=False)
    assert bare.latencies_ms.tobytes() == result.latencies_ms.tobytes()
    return run_ops + extract_ops, bare_ops


def _plain_episode():
    """``serve_plain_logged``'s smoke episode 0: 64 cores at rho 0.9,
    1,250 Poisson arrivals, 5 ms lognormal services."""
    return _plain_setup(1, True)[0]


#: Bytecodes per request of the plain episode, logged, plus
#: ``extract_paths`` over its log: 3.968 at the time of writing (4.352
#: with the previous wave loop, histogram feed and extractor), plus
#: about 1%.
PLAIN_OPCODES_PER_REQUEST = 4.01

#: The plain request log's exact overhead, as for the resilient one
#: below: 1.599 at the time of writing, plus about 1%.  It was 1.557
#: before: the wave loop those changes trimmed runs logged and unlogged,
#: so the ratio's denominator fell further than its numerator.
PLAIN_LOG_OVERHEAD_X = 1.615


def test_plain_logged_opcodes_per_request():
    result, log, run_ops = _episode_run(_plain_episode(), logged=True)
    paths, extract_ops = _count_opcodes(lambda: extract_paths(log.runs[0].records))
    assert result.offered_requests == len(paths) == 1_250
    per_request = (run_ops + extract_ops) / result.offered_requests
    assert per_request <= PLAIN_OPCODES_PER_REQUEST, per_request


#: The plain request log's own cost: bytecodes per request of the logged
#: episode plus ``extract_paths``, minus those of the unlogged episode.
#: 1.486 at the time of writing, plus about 1%.  Unlike the ratio above,
#: a cheaper shared loop leaves it where it is.
PLAIN_LOG_OPCODES_PER_REQUEST = 1.50


def test_plain_log_overhead_exact():
    logged, bare = _log_costs(_plain_episode(), 1_250)
    assert logged / bare <= PLAIN_LOG_OVERHEAD_X, logged / bare


def test_plain_log_opcodes_per_request():
    logged, bare = _log_costs(_plain_episode(), 1_250)
    per_request = (logged - bare) / 1_250
    assert per_request <= PLAIN_LOG_OPCODES_PER_REQUEST, per_request


def _resilient_episode_0():
    """``serve_resilient_logged``'s smoke episode 0: 1,000 Poisson arrivals
    plus a 50-request burst, a bandwidth window, stragglers, retries,
    shedding and a degradation controller."""
    return _resilient_episode(SimConfig(seed=1), 0, True)


#: Bytecodes per request of the logged resilient episode: 388.2 at the
#: time of writing, plus about 1%.
RESILIENT_OPCODES_PER_REQUEST = 392.0

#: The resilient request log's exact overhead: bytecodes of the logged
#: episode plus ``extract_paths`` over its log, over those of the same
#: episode unlogged.  1.059 at the time of writing, plus about 1%.
RESILIENT_LOG_OVERHEAD_X = 1.07


def test_resilient_loop_opcodes_per_request():
    result, _, executed = _episode_run(_resilient_episode_0(), logged=True)
    assert result.offered_requests == 1_050
    per_request = executed / result.offered_requests
    assert per_request <= RESILIENT_OPCODES_PER_REQUEST, per_request


#: The resilient request log's own cost, as for the plain one: 21.73
#: bytecodes per request at the time of writing, plus about 1%.
RESILIENT_LOG_OPCODES_PER_REQUEST = 21.95


def test_resilient_log_overhead_exact():
    logged, bare = _log_costs(_resilient_episode_0(), 1_050)
    assert logged / bare <= RESILIENT_LOG_OVERHEAD_X, logged / bare


def test_resilient_log_opcodes_per_request():
    logged, bare = _log_costs(_resilient_episode_0(), 1_050)
    per_request = (logged - bare) / 1_050
    assert per_request <= RESILIENT_LOG_OPCODES_PER_REQUEST, per_request


#: Bytecodes per request of the cluster episode: 765.1 at the time of
#: writing, plus about 1%.
CLUSTER_OPCODES_PER_REQUEST = 773.0


def test_cluster_loop_opcodes_per_request():
    """``cluster16_nodekill``'s smoke episode 0 (16 nodes x 4 cores, 32
    shards, replication 2, gather width 2, hedging, hotness placement,
    least-loaded routing, node 1 down for 25-60% of the horizon, 750
    requests, hooks off)."""
    sim, arrivals = _cluster_setup(1, True)[0]
    result, executed = _count_opcodes(lambda: sim.run(arrivals))
    per_request = executed / result.offered_requests
    assert result.offered_requests == 750
    assert result.failovers > 0 and result.hedges_issued > 0
    assert per_request <= CLUSTER_OPCODES_PER_REQUEST, per_request


#: The cluster request log's own cost, as for the plain one: bytecodes
#: per request of the logged episode plus ``extract_paths``, minus those
#: of the unlogged episode.  3,626.7 while a live run built every record
#: dict for the call-table parser and merged per-node span lists; 2,900.4
#: at the time of writing, plus about 1%.
CLUSTER_LOG_OPCODES_PER_REQUEST = 2930.0


def test_cluster_log_opcodes_per_request():
    """The cluster episode above, logged and then unlogged."""
    sim, arrivals = _cluster_setup(1, True)[0]
    log = RequestLog()
    with session(Observation(requests=log)):
        result, run_ops = _count_opcodes(lambda: sim.run(arrivals))
    paths, extract_ops = _count_opcodes(lambda: extract_paths(log.runs[0].records))
    assert len(paths) == result.offered_requests == 750
    bare, bare_ops = _count_opcodes(lambda: sim.run(arrivals))
    assert bare.latencies_ms.tobytes() == result.latencies_ms.tobytes()
    per_request = (run_ops + extract_ops - bare_ops) / 750
    assert per_request <= CLUSTER_LOG_OPCODES_PER_REQUEST, per_request


#: Bytecodes per demand load of the two 1-core walks below on the
#: smoke-size Low-hot workload, with about 1% of headroom over the counts
#: at the time of writing.  The baseline walk (hardware prefetching on)
#: exercises the demand walk, the load queue and the hardware-prefetch
#: candidates; the SW-PF walk adds the software-prefetch fills.
FUSED_WALK_OPCODES_PER_LOAD = {"baseline": 454.0, "sw_pf": 326.0}


@pytest.mark.parametrize("walk", sorted(FUSED_WALK_OPCODES_PER_LOAD))
def test_fused_walk_opcodes_per_load(walk):
    """One 1-core fused walk over ``emb_lowhot``'s smoke inputs
    (``rm2_1``, Low-hot, scale 0.01, batch 4, one batch, seed 1), divided
    by its demand loads."""
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
