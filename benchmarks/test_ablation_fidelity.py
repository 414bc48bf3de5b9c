"""Ablation: opt-in fidelity features (TLB translation, output stores).

Both live in the per-event loop of ``tests/embedding_oracle.py``; the
package's walks model neither.

Quantifies what the default calibration excludes: with multi-GB tables the
STLB cannot map the working set, so irregular rows pay page walks; and the
output-vector stores of Algorithm 1 add streaming write traffic.  Both
effects must slow the embedding stage without changing who wins.
"""

import pytest

from embedding_oracle import (
    TLBConfig,
    TLBModel,
    build_hierarchy,
    run_embedding_trace,
)
from repro.config import SimConfig
from repro.core.swpf import PAPER_SWPF
from repro.cpu.platform import get_platform
from repro.experiments.workloads import build_workload


@pytest.fixture(scope="module")
def workload():
    return build_workload(
        "rm2_1", "low", scale=0.015, batch_size=8, num_batches=2,
        config=SimConfig(seed=67),
    )


def test_fidelity_features(benchmark, workload):
    spec = get_platform("csl")

    def sweep():
        out = {}
        for name, kwargs in (
            ("default", {}),
            ("with_tlb", {"tlb": TLBModel(TLBConfig(l1_entries=16, stlb_entries=64))}),
            ("with_stores", {"model_stores": True}),
        ):
            base = run_embedding_trace(
                workload.trace, workload.amap, spec.core,
                build_hierarchy(spec.hierarchy), **kwargs,
            )
            pf = run_embedding_trace(
                workload.trace, workload.amap, spec.core,
                build_hierarchy(spec.hierarchy), plan=PAPER_SWPF.plan(),
                **kwargs,
            )
            out[name] = (base.total_cycles, pf.total_cycles)
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1, warmup_rounds=0)
    print()
    for name, (base, pf) in results.items():
        print(
            f"  {name:<12}: baseline={base:12.0f} sw_pf={pf:12.0f} "
            f"gain={base / pf:.2f}x"
        )
    default_base, default_pf = results["default"]
    # Each fidelity feature adds cost to the baseline...
    assert results["with_tlb"][0] > default_base
    assert results["with_stores"][0] > default_base
    # ...but never flips the paper's conclusion: SW-PF still wins.
    for name in results:
        base, pf = results[name]
        assert base / pf > 1.2, name
