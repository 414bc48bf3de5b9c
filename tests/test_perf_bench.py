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
