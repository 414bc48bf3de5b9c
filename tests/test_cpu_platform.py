"""Platform registry tests."""

import pytest

from repro.cpu.platform import (
    CPUSpec,
    PLATFORM_NAMES,
    get_platform,
    list_platforms,
    register_platform,
)
from repro.errors import ConfigError, UnknownPlatformError


def test_all_paper_platforms_present():
    assert set(PLATFORM_NAMES) == {"skl", "csl", "icl", "spr", "zen3"}
    for name in PLATFORM_NAMES:
        assert get_platform(name).name == name


def test_lookup_is_case_insensitive():
    assert get_platform("CSL").name == "csl"


def test_unknown_platform():
    with pytest.raises(UnknownPlatformError):
        get_platform("m1max")


def test_csl_matches_table3():
    csl = get_platform("csl")
    assert csl.frequency_hz == pytest.approx(2.4e9)
    assert csl.cores_per_socket == 24
    assert csl.sockets == 2
    assert csl.smt_per_core == 2
    assert csl.hierarchy.l1_size == 32 * 1024
    assert csl.hierarchy.l1_latency == 5.0
    assert csl.hierarchy.l2_size == 1024**2
    assert csl.hierarchy.l3_size == int(35.75 * 1024**2)
    assert csl.peak_dram_bw_bytes_s == pytest.approx(140e9)


def test_window_growth_matches_section_6_4():
    # ICL and SPR windows are +58% / +129% over CSL.
    csl = get_platform("csl").core.rob_entries
    icl = get_platform("icl").core.rob_entries
    spr = get_platform("spr").core.rob_entries
    assert icl / csl == pytest.approx(1.57, abs=0.03)
    assert spr / csl == pytest.approx(2.29, abs=0.03)


def test_zen3_has_ccx_llc():
    zen3 = get_platform("zen3")
    assert zen3.llc_shared_cores == 8
    assert zen3.llc_group_size() == 8
    assert get_platform("csl").llc_group_size() == 24


def test_total_cores():
    assert get_platform("csl").total_cores == 48
    assert get_platform("zen3").total_cores == 128  # the paper's 128 threads


def test_bandwidth_per_cycle():
    csl = get_platform("csl")
    assert csl.peak_dram_bw_bytes_per_cycle == pytest.approx(140e9 / 2.4e9)


def test_all_hierarchies_are_constructible():
    from repro.mem.hierarchy import build_hierarchy

    for name in PLATFORM_NAMES:
        spec = get_platform(name)
        hierarchy = build_hierarchy(spec.hierarchy)
        assert hierarchy.load_timing(12345)[1] == "dram"


def test_register_custom_platform():
    base = get_platform("csl")
    custom = CPUSpec(
        name="custom_test",
        display_name="Custom",
        frequency_hz=base.frequency_hz,
        cores_per_socket=8,
        sockets=1,
        smt_per_core=2,
        core=base.core,
        hierarchy=base.hierarchy,
        peak_dram_bw_bytes_s=base.peak_dram_bw_bytes_s,
    )
    register_platform(custom)
    assert get_platform("custom_test").cores_per_socket == 8
    with pytest.raises(ConfigError):
        register_platform(custom)
    register_platform(custom, overwrite=True)


def test_list_platforms_is_a_copy():
    snapshot = list_platforms()
    snapshot["bogus"] = None
    with pytest.raises(UnknownPlatformError):
        get_platform("bogus")


def test_spec_validation():
    base = get_platform("csl")
    with pytest.raises(ConfigError):
        CPUSpec(
            name="bad",
            display_name="bad",
            frequency_hz=-1,
            cores_per_socket=1,
            sockets=1,
            smt_per_core=2,
            core=base.core,
            hierarchy=base.hierarchy,
            peak_dram_bw_bytes_s=1e9,
        )
    with pytest.raises(ConfigError):
        CPUSpec(
            name="bad",
            display_name="bad",
            frequency_hz=1e9,
            cores_per_socket=1,
            sockets=1,
            smt_per_core=4,
            core=base.core,
            hierarchy=base.hierarchy,
            peak_dram_bw_bytes_s=1e9,
        )
