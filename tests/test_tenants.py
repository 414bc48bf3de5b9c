"""Tenant profiles, contention model, and defense-knob tests."""

import numpy as np
import pytest

from repro.config import SimConfig
from repro.analysis.cache_model import analyze_trace_reuse
from repro.cpu.platform import get_platform
from repro.errors import ConfigError
from repro.experiments.workloads import build_workload
from repro.mem.dram import MAX_UTILIZATION, DRAMModel
from embedding_oracle import Cache
from repro.mem.hierarchy import HierarchyConfig, build_hierarchy
from repro.tenants import (
    DEFAULT_DEFENSE_LADDER,
    ContentionModel,
    DefenseConfig,
    TenantFaultPlan,
    TenantMix,
    TenantProfile,
    TenantWorld,
    compute_tenant,
    contended_hierarchy,
    locker_tenant,
    streaming_tenant,
)
from repro.obs import RequestLog, attribute_miss
from repro.obs.critpath import bottleneck, extract_paths
from repro.obs.hooks import Observation, session
from repro.serving.server import ServingPolicy, simulate_server
from repro.serving.workload import poisson_arrivals
from repro.units import kib, mib


@pytest.fixture(scope="module")
def contention():
    cfg = SimConfig(seed=3)
    spec = get_platform("csl")
    wl = build_workload(
        "rm2_1", "low", scale=0.01, batch_size=8, num_batches=1, config=cfg
    )
    reuse = analyze_trace_reuse(
        wl.trace, spec.hierarchy, wl.model.embedding_dim, dataset="low"
    )
    return ContentionModel(wl.model, reuse.reuse, spec, 8)


class TestProfiles:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TenantProfile("", "locker", 0, 0.1)
        with pytest.raises(ConfigError):
            TenantProfile("t", "database", 0, 0.1)
        with pytest.raises(ConfigError):
            TenantProfile("t", "locker", -1, 0.1)
        with pytest.raises(ConfigError):
            TenantProfile("t", "locker", 0, float("nan"))
        with pytest.raises(ConfigError):
            TenantProfile("t", "locker", 0, 0.1, smt_utilization=1.5)
        with pytest.raises(ConfigError):
            TenantProfile("t", "locker", 0, 0.1, duty_cycle=0.0)
        with pytest.raises(ConfigError):
            TenantProfile("t", "locker", 0, 0.1, period_frac=0.0)
        with pytest.raises(ConfigError):
            TenantProfile("t", "locker", 0, 0.1, phase_frac=1.5)

    def test_mix_rejects_duplicate_names(self):
        with pytest.raises(ConfigError):
            TenantMix((locker_tenant("a"), streaming_tenant("a")))

    def test_always_on_window_spans_phase_to_horizon(self):
        mix = TenantMix((streaming_tenant(),), seed=1)
        assert mix.windows(1000.0) == [(0, 0.0, 1000.0)]

    def test_duty_windows_seeded_and_bounded(self):
        mix = TenantMix((locker_tenant(),), seed=5)
        a = mix.windows(10_000.0)
        b = TenantMix((locker_tenant(),), seed=5).windows(10_000.0)
        assert a == b
        assert a != TenantMix((locker_tenant(),), seed=6).windows(10_000.0)
        tenant = locker_tenant()
        for _, start, end in a:
            assert 0.0 <= start < end <= 10_000.0
            assert start >= tenant.phase_frac * 10_000.0
            assert end - start <= tenant.duty_cycle * tenant.period_frac * 10_000.0 + 1e-9

    def test_appending_a_tenant_preserves_earlier_schedules(self):
        solo = TenantMix((locker_tenant(),), seed=9).windows(5000.0)
        both = TenantMix((locker_tenant(), streaming_tenant()), seed=9).windows(5000.0)
        assert [w for w in both if w[0] == 0] == solo

    def test_horizon_must_be_positive(self):
        with pytest.raises(ConfigError):
            TenantMix((locker_tenant(),)).windows(0.0)


class TestDefenseConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            DefenseConfig("bad", tenant_ways=0)
        with pytest.raises(ConfigError):
            DefenseConfig("bad", bandwidth_cap=-0.1)
        with pytest.raises(ConfigError):
            DefenseConfig("")

    def test_default_ladder_escalates(self):
        names = [d.name for d in DEFAULT_DEFENSE_LADDER]
        assert names[0] == "none"
        assert DEFAULT_DEFENSE_LADDER[0].tenant_ways is None
        assert DEFAULT_DEFENSE_LADDER[-1].bandwidth_cap is not None


class TestContendedHierarchy:
    GEO = HierarchyConfig(l2_size=mib(1), l3_size=mib(16), l3_ways=16)

    def test_footprint_sizes_the_tenant_allocation(self):
        # 4 MiB footprint at 1 MiB/way -> 4 tenant ways -> 12 of 16 left.
        out = contended_hierarchy(self.GEO, mib(4), DefenseConfig("none"))
        assert out.effective_l3_ways == 12

    def test_cat_partition_caps_the_tenant(self):
        out = contended_hierarchy(
            self.GEO, mib(64), DefenseConfig("partition", tenant_ways=2)
        )
        assert out.effective_l3_ways == 14

    def test_huge_footprint_leaves_a_floor_above_l2(self):
        out = contended_hierarchy(self.GEO, mib(64), DefenseConfig("none"))
        # Never squeezed below one way more than the L2's worth.
        assert out.effective_l3_size > self.GEO.l2_size

    def test_zero_footprint_is_identity(self):
        assert contended_hierarchy(self.GEO, 0, DefenseConfig("none")) is self.GEO


class TestHierarchyCAT:
    def test_allocated_ways_validation(self):
        with pytest.raises(ConfigError):
            HierarchyConfig(l3_allocated_ways=0)
        with pytest.raises(ConfigError):
            HierarchyConfig(l3_ways=16, l3_allocated_ways=17)
        with pytest.raises(ConfigError):
            # One way of a 16-way 32 MiB L3 is 2 MiB: not above a 2 MiB L2.
            HierarchyConfig(
                l2_size=mib(2), l3_size=mib(32), l3_ways=16, l3_allocated_ways=1
            )

    def test_effective_size_math(self):
        cfg = HierarchyConfig(l3_size=mib(16), l3_ways=16, l3_allocated_ways=12)
        assert cfg.effective_l3_ways == 12
        assert cfg.effective_l3_size == mib(12)

    def test_full_allocation_matches_unallocated(self):
        base = HierarchyConfig(l3_size=mib(2), l3_ways=16, l2_size=kib(256))
        full = HierarchyConfig(
            l3_size=mib(2), l3_ways=16, l2_size=kib(256), l3_allocated_ways=16
        )
        rng = np.random.default_rng(0)
        lines = rng.integers(0, 100_000, size=5000)
        h_base, h_full = build_hierarchy(base), build_hierarchy(full)
        lat_a = np.array([h_base.load_timing(int(x))[0] for x in lines])
        lat_b = np.array([h_full.load_timing(int(x))[0] for x in lines])
        assert np.array_equal(lat_a, lat_b)


def _touch(cache: Cache, line: int) -> bool:
    """One demand access: a hit, or a miss that fills the line."""
    if cache.access(line):
        return True
    cache.fill(line)
    return False


class TestPartitioningLRUStackProperty:
    def test_partition_beats_sharing_with_a_sweeper(self):
        """Isolated ways win: our hit rate behind a CAT partition is never
        worse than sharing all ways with a tenant that sweeps the LLC."""
        size, ways, ours = kib(64), 8, 6
        way_bytes = size // ways
        rng = np.random.default_rng(42)
        our_lines = rng.integers(0, 1200, size=4000)  # reusable working set
        sweep = iter(np.tile(np.arange(10_000, 14_000), 2))

        shared = Cache("l3", size, ways)
        hits_shared = 0
        for line in our_lines:
            hits_shared += _touch(shared, int(line))
            _touch(shared, int(next(sweep)))  # tenant interleaves a sweep

        part = Cache("l3", way_bytes * ours, ours)
        hits_part = sum(_touch(part, int(line)) for line in our_lines)
        assert hits_shared > 0
        assert hits_part >= hits_shared

    @pytest.mark.parametrize("seed", [0, 7])
    def test_hit_rate_monotone_in_allocated_ways(self, seed):
        """More ways never hurt (same set count -> LRU inclusion)."""
        size, ways = kib(64), 8
        way_bytes = size // ways
        rng = np.random.default_rng(seed)
        lines = rng.integers(0, 2000, size=4000)
        rates = []
        for w in (2, 4, 8):
            cache = Cache("l3", way_bytes * w, w)
            rates.append(sum(_touch(cache, int(x)) for x in lines))
        assert rates[0] > 0  # so every count compared is
        assert rates == sorted(rates)


class TestDRAMTenantPressure:
    def test_zero_tenant_load_is_byte_identical(self):
        a, b = DRAMModel(), DRAMModel()
        b.set_tenant_utilization(0.0)
        a.set_utilization(0.4)
        b.set_utilization(0.4)
        assert b.queueing_factor() == a.queueing_factor()
        lines = np.arange(0, 4096, 7)
        assert np.array_equal(a.access_batch(lines), b.access_batch(lines))

    def test_tenant_load_inflates_latency(self):
        dram = DRAMModel()
        dram.set_utilization(0.35)
        quiet = dram.queueing_factor()
        dram.set_tenant_utilization(0.5)
        assert dram.queueing_factor() > quiet
        assert dram.total_utilization() == pytest.approx(0.85)

    def test_throttle_caps_tenant_contribution(self):
        dram = DRAMModel()
        dram.set_utilization(0.35)
        dram.set_tenant_utilization(0.5)
        dram.set_tenant_throttle(0.1)
        assert dram.effective_tenant_utilization == pytest.approx(0.1)
        capped = dram.queueing_factor()
        other = DRAMModel()
        other.set_utilization(0.35)
        other.set_tenant_utilization(0.1)
        assert capped == other.queueing_factor()
        dram.set_tenant_throttle(None)
        assert dram.effective_tenant_utilization == pytest.approx(0.5)

    def test_combined_load_saturates_at_cap(self):
        dram = DRAMModel()
        dram.set_utilization(0.6)
        dram.set_tenant_utilization(0.9)
        assert dram.total_utilization() == MAX_UTILIZATION
        assert np.isfinite(dram.queueing_factor())

    def test_validation_and_reset(self):
        dram = DRAMModel()
        with pytest.raises(ConfigError):
            dram.set_tenant_utilization(-0.1)
        with pytest.raises(ConfigError):
            dram.set_tenant_throttle(-1.0)
        dram.set_tenant_utilization(0.5)
        dram.set_tenant_throttle(0.2)
        dram.reset()
        assert dram.tenant_utilization == 0.0
        assert dram.effective_tenant_utilization == 0.0


class TestContentionModel:
    def test_quiet_point_is_baseline(self, contention):
        point = contention.design_point((), DefenseConfig("none"))
        assert point.multiplier == pytest.approx(1.0)
        assert 0.0 <= point.mem_stall_share <= 1.0

    def test_multiplier_monotone_in_tenant_bandwidth(self, contention):
        none = DefenseConfig("none")
        mults = [
            contention.design_point(
                (TenantProfile("t", "streaming", mib(8), rho),), none
            ).multiplier
            for rho in (0.1, 0.4, 0.8)
        ]
        assert mults == sorted(mults)
        assert mults[-1] > mults[0]

    def test_defense_never_hurts_under_the_locker(self, contention):
        locker = (locker_tenant(),)
        undefended = contention.design_point(locker, DEFAULT_DEFENSE_LADDER[0])
        defended = contention.design_point(locker, DEFAULT_DEFENSE_LADDER[-1])
        assert defended.multiplier <= undefended.multiplier
        assert defended.multiplier < undefended.multiplier * 0.7

    def test_compute_tenant_barely_touches_memory(self, contention):
        point = contention.design_point(
            (compute_tenant(),), DefenseConfig("none")
        )
        assert point.multiplier < 1.15
        assert point.smt_inflation > 1.0

    def test_points_are_cached(self, contention):
        a = contention.design_point((locker_tenant(),), DEFAULT_DEFENSE_LADDER[0])
        b = contention.design_point((locker_tenant(),), DEFAULT_DEFENSE_LADDER[0])
        assert a is b


class TestContendedMisses:
    def test_late_request_takes_its_dominant_segment(self, contention):
        """A request that went late inside a tenant window is attributed
        to its critical path's dominant segment (the inflation a locker
        causes is penalty), and the window stays in its record."""
        arrivals = poisson_arrivals(5.0 / (4 * 0.7), 300, np.random.default_rng(4))
        world = TenantWorld(
            TenantMix((locker_tenant(),), seed=3), contention, float(arrivals[-1])
        )
        log = RequestLog()
        with session(Observation(requests=log)):
            simulate_server(
                arrivals, 5.0, 4, np.random.default_rng(17),
                fault_plan=TenantFaultPlan(world, seed=3),
                policy=ServingPolicy(deadline_ms=15.0),
            )
        records = log.runs[0].records
        contended = [
            (attribute_miss(record), bottleneck(path.by_kind()))
            for record, path in zip(records, extract_paths(records))
            if record["deadline_met"] is False
            and any(w.startswith("tenant_locker:") for w in record["fault_windows"])
        ]
        assert all(cause == dominant for cause, dominant in contended)
        assert {cause for cause, _ in contended} == {"queue", "penalty"}
