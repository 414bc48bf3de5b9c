"""Design-point evaluation tests — the paper's Section 6 panel in miniature."""

import pytest

from repro.core.schemes import SCHEME_NAMES, evaluate_all_schemes, evaluate_scheme
from repro.errors import UnknownSchemeError


@pytest.fixture(scope="module")
def workload():
    """One small Low-hot rm2_1 workload on ``csl``."""
    from repro.config import SimConfig
    from repro.cpu.platform import get_platform
    from repro.model.configs import get_model
    from repro.trace.production import make_trace
    from repro.trace.stream import AddressMap

    config = SimConfig(seed=77)
    model = get_model("rm2_1").scaled(0.01)
    trace = make_trace(
        "low", model.num_tables, model.rows, 8, 2,
        model.lookups_per_sample, config=config,
    )
    amap = AddressMap([model.rows] * model.num_tables, model.embedding_dim)
    return model, trace, amap, get_platform("csl")


@pytest.fixture(scope="module")
def panel(workload):
    """All six schemes on the workload, single core."""
    return evaluate_all_schemes(*workload, num_cores=1)


def test_all_schemes_evaluated(panel):
    assert set(panel) == set(SCHEME_NAMES)
    for result in panel.values():
        assert result.batch_cycles > 0
        assert result.embedding_cycles > 0
        assert result.batch_ms > 0


def test_sw_pf_beats_baseline(panel):
    assert panel["sw_pf"].speedup_over(panel["baseline"]) > 1.1
    assert panel["sw_pf"].embedding_speedup_over(panel["baseline"]) > 1.1


def test_sw_pf_improves_l1_and_latency(panel):
    assert panel["sw_pf"].l1_hit_rate > panel["baseline"].l1_hit_rate
    assert panel["sw_pf"].avg_load_latency < panel["baseline"].avg_load_latency


def test_dp_ht_hurts_latency(panel):
    # The paper's Fig 13: DP-HT down to 0.62x.
    assert panel["dp_ht"].speedup_over(panel["baseline"]) < 0.95


def test_mp_ht_never_catastrophic(panel):
    assert panel["mp_ht"].speedup_over(panel["baseline"]) > 0.9


def test_integrated_is_best_or_tied(panel):
    base = panel["baseline"]
    integrated = panel["integrated"].speedup_over(base)
    assert integrated >= panel["sw_pf"].speedup_over(base) * 0.98
    assert integrated >= panel["mp_ht"].speedup_over(base)
    assert integrated > 1.2


def test_hw_pf_off_hurts_end_to_end(panel):
    # Fig 13: "turning off hardware prefetching hurts performance in all
    # cases" end-to-end (dense stages lose their prefetchers).
    assert panel["hw_pf_off"].speedup_over(panel["baseline"]) < 1.0


def test_embedding_projection_applied(panel):
    # Scaled rm2_1 projects to paper-scale lookups: embedding dominates.
    assert panel["baseline"].stages is not None
    assert panel["baseline"].stages.embedding_fraction > 0.9


def test_unknown_scheme_rejected(panel):
    from repro.config import SimConfig
    from repro.cpu.platform import get_platform
    from repro.model.configs import get_model
    from repro.trace.production import make_trace
    from repro.trace.stream import AddressMap

    model = get_model("rm2_1").scaled(0.01)
    trace = make_trace(
        "low", model.num_tables, model.rows, 4, 1,
        model.lookups_per_sample, config=SimConfig(),
    )
    amap = AddressMap([model.rows] * model.num_tables, model.embedding_dim)
    with pytest.raises(UnknownSchemeError):
        evaluate_scheme("turbo", model, trace, amap, get_platform("csl"))


def test_scheme_result_metadata(panel):
    result = panel["baseline"]
    assert result.model.startswith("rm2_1")
    assert result.num_cores == 1
    assert result.scheme == "baseline"


@pytest.mark.parametrize("num_cores", [1, 4])
def test_all_schemes_run_each_walk_once(workload, monkeypatch, num_cores):
    """MP-HT reuses Baseline's walk and Integrated reuses SW-PF's; every
    result still equals its own :func:`evaluate_scheme` call."""
    from dataclasses import asdict

    from repro.core import schemes

    walks = []
    real = schemes._run_embedding

    def counted(*args, **kwargs):
        walks.append(args[3:])
        return real(*args, **kwargs)

    monkeypatch.setattr(schemes, "_run_embedding", counted)
    shared = evaluate_all_schemes(*workload, num_cores=num_cores)
    assert len(walks) == 4
    assert len(set(walks)) == 4
    walks.clear()
    for scheme in SCHEME_NAMES:
        single = evaluate_scheme(scheme, *workload, num_cores=num_cores)
        assert asdict(shared[scheme]) == asdict(single), scheme
    assert len(walks) == len(SCHEME_NAMES)
