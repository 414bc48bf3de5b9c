"""Benchmark-suite fixtures.

Every benchmark regenerates one paper table/figure through the experiment
registry, measures it with pytest-benchmark (single round — these are
simulations, not microbenchmarks), prints the regenerated rows, and asserts
the *shape* properties the paper reports (who wins, roughly by how much,
where crossovers fall).

The ablations of what the package does not model (non-LRU replacement,
the TLB, output stores) import the oracle in ``tests/embedding_oracle.py``.
"""

import sys
from pathlib import Path

import pytest

from repro.config import SimConfig
from repro.experiments.base import ExperimentReport, format_report

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))


@pytest.fixture(scope="session")
def bench_config():
    """Deterministic config shared by the whole benchmark suite."""
    return SimConfig(seed=2023)


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under pytest-benchmark timing."""

    def runner(func, *args, **kwargs):
        return benchmark.pedantic(
            func, args=args, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0
        )

    return runner


@pytest.fixture
def emit():
    """Print a regenerated report so `--benchmark-only -s` shows the rows."""

    def _emit(report: ExperimentReport) -> ExperimentReport:
        print()
        print(format_report(report))
        return report

    return _emit
