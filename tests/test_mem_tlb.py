"""TLB model tests."""

import pytest

from repro.errors import ConfigError
from embedding_oracle import TLBConfig, TLBModel


def small_tlb(l1=2, stlb=4, **kw):
    return TLBModel(TLBConfig(l1_entries=l1, stlb_entries=stlb, **kw))


def test_first_access_walks():
    tlb = small_tlb()
    cost = tlb.translate(7)
    assert cost == tlb.config.walk_cycles
    assert tlb.walks == 1


def test_repeat_hits_l1_for_free():
    tlb = small_tlb()
    tlb.translate(7)
    assert tlb.translate(7) == tlb.config.l1_hit_cycles
    assert tlb.l1_hits == 1


def test_l1_eviction_falls_to_stlb():
    tlb = small_tlb(l1=2, stlb=8)
    for page in (1, 2, 3):  # 1 evicted from the 2-entry L1
        tlb.translate(page)
    cost = tlb.translate(1)
    assert cost == tlb.config.stlb_hit_cycles
    assert tlb.stlb_hits == 1


def test_stlb_eviction_forces_rewalk():
    tlb = small_tlb(l1=2, stlb=4)
    for page in range(6):  # exceed the STLB
        tlb.translate(page)
    assert tlb.translate(0) == tlb.config.walk_cycles


def test_stlb_hit_promotes_to_l1():
    tlb = small_tlb(l1=2, stlb=8)
    for page in (1, 2, 3):
        tlb.translate(page)
    tlb.translate(1)  # STLB hit, promoted
    assert tlb.translate(1) == tlb.config.l1_hit_cycles


def test_walk_rate_and_reach():
    tlb = small_tlb()
    for page in range(10):
        tlb.translate(page)
    assert tlb.walk_rate == pytest.approx(1.0)
    assert tlb.reach_bytes() == 4 * 2 * 1024 * 1024


def test_page_of_line():
    tlb = TLBModel()
    lines_per_page = 2 * 1024 * 1024 // 64
    assert tlb.page_of_line(0) == 0
    assert tlb.page_of_line(lines_per_page) == 1


def test_translate_line_uses_page_granularity():
    tlb = TLBModel()
    tlb.translate_line(0)
    # Every line of the same 2 MiB page hits.
    assert tlb.translate_line(100) == tlb.config.l1_hit_cycles


def test_reset():
    tlb = small_tlb()
    tlb.translate(3)
    tlb.reset()
    assert tlb.accesses == 0
    assert tlb.translate(3) == tlb.config.walk_cycles


def test_config_validation():
    with pytest.raises(ConfigError):
        TLBConfig(page_bytes=3000)
    with pytest.raises(ConfigError):
        TLBConfig(l1_entries=0)
    with pytest.raises(ConfigError):
        TLBConfig(l1_entries=100, stlb_entries=10)
    with pytest.raises(ConfigError):
        TLBConfig(walk_cycles=-1)


def test_paper_scale_tables_exceed_stlb_reach():
    """The motivation: a 28.6 GiB model cannot be mapped by the STLB."""
    from repro.model.configs import get_model

    tlb = TLBModel()
    assert get_model("rm2_1").embedding_bytes > tlb.reach_bytes()


def test_engine_integration_adds_latency(tiny_trace, tiny_amap, csl):
    from embedding_oracle import build_hierarchy, run_embedding_trace

    base = run_embedding_trace(
        tiny_trace, tiny_amap, csl.core, build_hierarchy(csl.hierarchy)
    )
    tlb = TLBModel(TLBConfig(l1_entries=4, stlb_entries=16))  # tiny reach
    with_tlb = run_embedding_trace(
        tiny_trace, tiny_amap, csl.core, build_hierarchy(csl.hierarchy), tlb=tlb
    )
    assert with_tlb.total_cycles > base.total_cycles
    assert tlb.accesses == tiny_trace.total_lookups()
    assert tlb.walk_rate > 0
