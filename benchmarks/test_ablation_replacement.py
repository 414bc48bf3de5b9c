"""Ablation: cache replacement policy under embedding traffic.

The paper's reuse-distance model assumes LRU "or its variants".  This
ablation quantifies how much the variant matters for the irregular
embedding stream: true LRU vs tree-PLRU (what real L1/L2s build) vs FIFO.
The package models LRU only; the other policies live in the reference
caches of ``tests/embedding_oracle.py``, and so does this sweep.
"""

import pytest

from embedding_oracle import build_hierarchy, run_embedding_trace
from repro.config import SimConfig
from repro.cpu.platform import get_platform
from repro.experiments.workloads import build_workload


@pytest.fixture(scope="module")
def workload():
    return build_workload(
        "rm2_1", "medium", scale=0.015, batch_size=8, num_batches=2,
        config=SimConfig(seed=53),
    )


def test_replacement_policy_ablation(benchmark, workload):
    spec = get_platform("csl")

    def sweep():
        results = {}
        for policy in ("lru", "plru", "fifo"):
            # PLRU needs power-of-two ways; the 11-way LLC keeps LRU, as
            # real parts do.
            hierarchy = build_hierarchy(
                spec.hierarchy, policy=policy, l3_policy="lru"
            )
            results[policy] = run_embedding_trace(
                workload.trace, workload.amap, spec.core, hierarchy
            )
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1, warmup_rounds=0)
    print()
    for policy, r in results.items():
        print(
            f"  {policy:>5}: cycles={r.total_cycles:12.0f} "
            f"l1={r.l1_hit_rate:.3f} l2={r.l2_hit_rate:.3f}"
        )
    # The paper's premise: for large-reuse-distance streams the policy
    # variant barely matters — all within a few percent of LRU.
    lru = results["lru"].total_cycles
    for policy in ("plru", "fifo"):
        assert results[policy].total_cycles == pytest.approx(lru, rel=0.10)
    # PLRU approximates LRU more closely than FIFO does on hit rate.
    lru_hit = results["lru"].l1_hit_rate
    assert abs(results["plru"].l1_hit_rate - lru_hit) <= (
        abs(results["fifo"].l1_hit_rate - lru_hit) + 0.02
    )
