"""Trace-driven execution of the embedding stage.

This engine plays Algorithm 1 against a simulated core + memory hierarchy:
every pooled lookup expands to its cache-line loads, every load walks
L1D/L2/L3/DRAM, and the :class:`~repro.cpu.core.CoreModel` converts the
resulting latencies into cycles with window/MSHR-limited overlap.

The engine also owns the *mechanism* of software prefetching: a
:class:`PrefetchPlan` (policy comes from :mod:`repro.core.swpf`) makes the
engine issue look-ahead prefetches ``distance`` lookups ahead, covering
``amount_lines`` of the future row.  Timeliness is handled exactly:
a prefetched line that has landed in L1 but whose fetch has not yet
*completed* exposes the residual latency to the demand load (late
prefetch); a prefetched line evicted before use simply misses again
(pollution).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from ..cpu.core import CoreModel, CoreSpec
from ..errors import ConfigError
from ..mem.dram import ROW_BUFFER_BYTES
from ..mem.fastcache import FastCache
from ..mem.hierarchy import MemoryHierarchy
from ..obs import hooks as obs_hooks
from ..obs.cpi import embedding_cpi_stack, publish_cpi_stack
from ..trace.dataset import EmbeddingTrace
from ..trace.stream import AddressMap
from ..units import CACHE_LINE_BYTES
from .kernels import KernelCostModel

__all__ = ["PrefetchPlan", "EmbeddingRunResult", "run_embedding_trace"]


@dataclass(frozen=True)
class PrefetchPlan:
    """Mechanism-level description of application-initiated prefetching.

    Mirrors Algorithm 3 of the paper: at lookup ``i``, prefetch
    ``amount_lines`` cache lines of the row used by lookup
    ``i + distance``, into ``target_level``.
    """

    distance: int = 4
    amount_lines: int = 8
    target_level: str = "l1"

    def __post_init__(self) -> None:
        if self.distance <= 0:
            raise ConfigError(f"prefetch distance must be positive, got {self.distance}")
        if self.amount_lines <= 0:
            raise ConfigError(
                f"prefetch amount must be positive, got {self.amount_lines}"
            )
        if self.target_level not in ("l1", "l2", "l3"):
            raise ConfigError(f"bad prefetch target {self.target_level!r}")


@dataclass
class EmbeddingRunResult:
    """Measured outcome of running the embedding stage of a trace."""

    total_cycles: float
    batch_cycles: List[float]
    loads: int
    effective_latency_sum: float
    instr_count: int
    utilization: float
    stall_fraction: float
    window_stall_cycles: float
    mshr_stall_cycles: float
    l1_hit_rate: float
    l2_hit_rate: float
    l3_hit_rate: float
    dram_fraction: float
    dram_bytes: int
    prefetches_issued: int
    level_fractions: Dict[str, float] = field(default_factory=dict)
    issue_cycles: float = 0.0

    @property
    def avg_load_latency(self) -> float:
        """Average *effective* demand-load latency in cycles.

        Effective means after prefetch hiding and including late-prefetch
        residuals — the quantity VTune's average load latency reports.
        """
        return self.effective_latency_sum / self.loads if self.loads else 0.0

    @property
    def mean_batch_cycles(self) -> float:
        """Average cycles per batch."""
        if not self.batch_cycles:
            return 0.0
        return sum(self.batch_cycles) / len(self.batch_cycles)

    def cpi_stack(self) -> Dict[str, float]:
        """Where the cycles went, as fractions of the total.

        ``issue`` is the ideal front-end time (instructions / width);
        ``window_stall`` and ``queue_stall`` are the two memory-stall
        classes the core model distinguishes (full-window vs load-queue /
        fill-buffer waits); ``drain`` is everything else — mostly the
        end-of-batch waits for in-flight misses.  A VTune-style top-down
        view of the simulated execution.
        """
        if self.total_cycles <= 0:
            return {"issue": 0.0, "window_stall": 0.0, "queue_stall": 0.0, "drain": 0.0}
        total = self.total_cycles
        issue = min(self.issue_cycles, total)
        window = self.window_stall_cycles
        queue = self.mshr_stall_cycles
        drain = max(0.0, total - issue - window - queue)
        return {
            "issue": issue / total,
            "window_stall": window / total,
            "queue_stall": queue / total,
            "drain": drain / total,
        }


def _build_lookup_stream(
    trace: EmbeddingTrace, amap: AddressMap, batch: int, loop_order: str
) -> "tuple[np.ndarray, np.ndarray]":
    """Flatten one batch's lookups into execution order.

    Returns ``(first_lines, sample_flags)``: the row first-line per lookup,
    and whether a (table, sample) segment starts at that position
    (per-sample kernel overhead is charged there).
    """
    line_parts = []
    flag_parts = []

    def segment(t: int, tb, k_first: int, k_last: int) -> None:
        """Lines + flags for samples [k_first, k_last) of table t."""
        offsets = tb.offsets
        lines = amap.batch_first_lines(t, tb)[offsets[k_first] : offsets[k_last]]
        flags = np.zeros(lines.size, dtype=bool)
        base0 = int(offsets[k_first])
        for k in range(k_first, k_last):
            start = int(offsets[k]) - base0
            if start < lines.size and int(offsets[k + 1]) > int(offsets[k]):
                flags[start] = True
        line_parts.append(lines)
        flag_parts.append(flags)

    if loop_order == "table_major":
        for t in range(trace.num_tables):
            tb = trace.table_batch(batch, t)
            segment(t, tb, 0, tb.batch_size)
    else:  # sample_major
        batch_size = trace.table_batch(batch, 0).batch_size
        for k in range(batch_size):
            for t in range(trace.num_tables):
                segment(t, trace.table_batch(batch, t), k, k + 1)

    if not line_parts:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
    return np.concatenate(line_parts), np.concatenate(flag_parts)


def run_embedding_trace(
    trace: EmbeddingTrace,
    amap: AddressMap,
    core_spec: CoreSpec,
    hierarchy: MemoryHierarchy,
    plan: Optional[PrefetchPlan] = None,
    cost: KernelCostModel = KernelCostModel(),
    batch_indices: Optional[Sequence[int]] = None,
    loop_order: str = "table_major",
) -> EmbeddingRunResult:
    """Execute the embedding stage of ``trace`` and measure it.

    Parameters
    ----------
    trace, amap:
        The lookups and the physical table layout.
    core_spec, hierarchy:
        The core resources and the (possibly shared) memory system, whose
        levels must all be :class:`~repro.mem.fastcache.FastCache` (what
        :func:`~repro.mem.hierarchy.build_hierarchy` builds).
    plan:
        Optional software-prefetch plan (None = baseline demand loads).
    batch_indices:
        Subset of batches to execute (multi-core strides the trace across
        cores); default is every batch in order.
    loop_order:
        ``"table_major"`` (the paper's Algorithm 1 and PyTorch's
        per-table ``embedding_bag`` calls: all of table t's lookups, then
        table t+1) or ``"sample_major"`` (all tables for sample k, then
        sample k+1) — the ordering that trades intra-table reuse for
        per-sample output locality.  Section 3.1's inter-table thrash
        discussion is about exactly this choice.

    Two paths, bit for bit the same as the per-event loop of
    ``tests/embedding_oracle.py`` (which also keeps the TLB and
    output-store fidelity options the ablations use): with no prefetching
    of any kind, the hierarchy's state depends only on the access *order*
    and the core's only on the latency *sequence*, so each batch runs as
    one vectorized hierarchy walk plus one bulk core replay; every other
    run takes the fused per-line kernel :func:`_fused_walk`.
    """
    if loop_order not in ("table_major", "sample_major"):
        raise ConfigError(f"unknown loop order {loop_order!r}")
    if amap.num_tables != trace.num_tables:
        raise ConfigError("address map and trace disagree on table count")
    if not all(
        isinstance(level, FastCache)
        for level in (hierarchy.l1, hierarchy.l2, hierarchy.l3)
    ):
        raise ConfigError(
            "run_embedding_trace needs FastCache levels (build_hierarchy builds them)"
        )
    core = CoreModel(core_spec)
    row_lines = amap.row_lines
    if plan and plan.amount_lines > row_lines:
        plan = PrefetchPlan(plan.distance, row_lines, plan.target_level)
    batch_cycles: List[float] = []
    obs, obs_tid, obs_hist, obs_start = _observe(hierarchy)
    which_batches = batch_indices if batch_indices is not None else range(trace.num_batches)
    streams = (
        (b, *_build_lookup_stream(trace, amap, b, loop_order)) for b in which_batches
    )
    # The power-of-two issue-width condition keeps the bulk replay's fused
    # cycle arithmetic bit-exact (see CoreModel.issue_demand_chunk).
    if (
        plan is None
        and not hierarchy.hw_prefetch_enabled
        and core_spec.issue_width & (core_spec.issue_width - 1) == 0
    ):
        walk = _bulk_walk
    else:
        walk = _fused_walk
    effective_latency_sum, demand_loads = walk(
        streams, row_lines, core, hierarchy, plan, cost, batch_cycles,
        obs, obs_tid, obs_hist,
    )
    return _finish(
        hierarchy, core, core_spec, batch_cycles, effective_latency_sum,
        demand_loads, obs, obs_start,
    )


def _observe(hierarchy: MemoryHierarchy):
    """Start observing one run: ``(obs, track id, latency histogram,
    hierarchy counters at the start)``, all None when no observation is
    active.

    Every hook sits at batch granularity (or one branch per load), never
    inside the vectorized walk, so an active observation cannot perturb
    results.  Hierarchy stats are published as end-minus-start deltas
    because multicore runs reuse hierarchies across many calls.
    """
    obs = obs_hooks.active()
    if obs is None:
        return None, None, None, None
    hstats = hierarchy.stats
    start = (
        dict(hstats.level_hits), hstats.total_latency_cycles,
        hstats.demand_accesses, hstats.prefetch_requests, hstats.dram_bytes,
    )
    return (
        obs, obs.tracer.new_sim_track("embedding"),
        obs.metrics.histogram("mem.load_latency_cycles"), start,
    )


def _finish(
    hierarchy: MemoryHierarchy,
    core: CoreModel,
    core_spec: CoreSpec,
    batch_cycles: List[float],
    effective_latency_sum: float,
    demand_loads: int,
    obs,
    obs_start,
) -> EmbeddingRunResult:
    """Publish an observed run's counters; assemble the run's result."""
    total = core.now
    hstats = hierarchy.stats
    if obs is not None:
        start_hits, start_latency, start_accesses, start_prefetches, start_bytes = (
            obs_start
        )
        registry = obs.metrics
        delta_hits = {
            level: hstats.level_hits.get(level, 0) - start_hits.get(level, 0)
            for level in hstats.level_hits
        }
        for level, count in delta_hits.items():
            if count:
                registry.counter("mem.level_hits", level=level).inc(count)
        registry.counter("mem.demand_accesses").inc(
            hstats.demand_accesses - start_accesses
        )
        registry.counter("mem.latency_cycles_total").inc(
            hstats.total_latency_cycles - start_latency
        )
        registry.counter("mem.prefetch_requests").inc(
            hstats.prefetch_requests - start_prefetches
        )
        registry.counter("mem.dram_bytes").inc(hstats.dram_bytes - start_bytes)
        core.publish_metrics(registry, stage="embedding")
        cfg = hierarchy.config
        publish_cpi_stack(
            registry,
            embedding_cpi_stack(
                "embedding",
                total,
                core.instr_count / core_spec.issue_width,
                delta_hits,
                cfg.l3_latency,
                cfg.l3_latency + cfg.dram.base_latency_cycles,
            ),
        )
    return EmbeddingRunResult(
        total_cycles=total,
        batch_cycles=batch_cycles,
        loads=demand_loads,
        effective_latency_sum=effective_latency_sum,
        instr_count=core.instr_count,
        utilization=core.utilization,
        stall_fraction=core.stall_fraction,
        window_stall_cycles=core.window_stall_cycles,
        mshr_stall_cycles=core.mshr_stall_cycles,
        l1_hit_rate=hierarchy.l1.stats.hit_rate,
        l2_hit_rate=hierarchy.l2.stats.hit_rate,
        l3_hit_rate=hierarchy.l3.stats.hit_rate,
        dram_fraction=hstats.hit_fraction("dram"),
        dram_bytes=hstats.dram_bytes,
        prefetches_issued=core.prefetches,
        level_fractions={
            level: hstats.hit_fraction(level) for level in ("l1", "l2", "l3", "dram")
        },
        issue_cycles=core.instr_count / core_spec.issue_width,
    )


def _bulk_walk(
    batches,
    row_lines: int,
    core: CoreModel,
    hierarchy: MemoryHierarchy,
    plan: Optional[PrefetchPlan],
    cost: KernelCostModel,
    batch_cycles: List[float],
    obs,
    obs_tid: Optional[int],
    obs_hist,
) -> "tuple[float, int]":
    """Each batch as one vectorized hierarchy walk plus one bulk core
    replay (no prefetching of any kind; ``plan`` is None).  Same arguments
    and return value as :func:`_fused_walk`."""
    effective_latency_sum = 0.0
    demand_loads = 0
    for b, stream_lines, sample_flags in batches:
        batch_start = core.now
        n_lookups = stream_lines.size
        if n_lookups:
            lines_all = (
                stream_lines[:, None] + np.arange(row_lines, dtype=np.int64)
            ).ravel()
            pre_uops = np.full(lines_all.size, cost.uops_per_line, dtype=np.int64)
            pre_uops[::row_lines] += cost.uops_per_lookup_base
            flag_idx = np.nonzero(sample_flags)[0]
            pre_uops[flag_idx * row_lines] += cost.uops_per_sample_base
            latencies = hierarchy.access_lines(lines_all)
            core.issue_demand_chunk(latencies, pre_uops)
            demand_loads += lines_all.size
            if obs is not None:
                obs_hist.observe_many(latencies)
            # Left-to-right accumulation matches the per-event loop's
            # float rounding exactly (np.sum's pairwise order would not).
            acc = effective_latency_sum
            for latency in latencies.tolist():
                acc += latency
            effective_latency_sum = acc
        core.drain()
        batch_cycles.append(core.now - batch_start)
        if obs is not None:
            obs.tracer.add_sim_span(
                f"batch[{b}]", "sim.embedding", batch_start,
                core.now - batch_start, tid=obs_tid,
                args={"loads": int(n_lookups) * row_lines},
            )
    return effective_latency_sum, demand_loads


def _fused_walk(
    batches,
    row_lines: int,
    core: CoreModel,
    hierarchy: MemoryHierarchy,
    plan: Optional[PrefetchPlan],
    cost: KernelCostModel,
    batch_cycles: List[float],
    obs,
    obs_tid: Optional[int],
    obs_hist,
) -> "tuple[float, int]":
    """The per-line embedding loop, fused.

    ``batches`` yields ``(b, stream_lines, sample_flags)``.  Replays exactly
    the events of the per-event loop in ``tests/embedding_oracle.py``
    without TLB or stores — the same cache, prefetcher and DRAM
    transitions in the same order, and the same core stalls from the same
    float operations — but with the bodies of ``MemoryHierarchy.load_timing`` /
    ``prefetch_timing`` / ``hw_prefetch_candidates``, the ``FastCache``
    scalar ``access`` / ``fill``, the prefetchers' ``observe``,
    ``DRAMModel.access`` and the per-event core's issue and stall methods
    inlined, so no call is made per line.  The core state is retired
    lazily (see the comment on it below).

    The caches' scalar state (``_where`` membership, the row table of
    LRU-first line lists, ``_pend_lines``) and the DRAM open rows are
    mutated in place; everything else — counters, prefetcher and core
    state — lives in locals and is written back once at the end.
    ``queueing_factor()`` is read once: utilization only changes between
    calls.  ``core`` must have no load in flight (the caller's is fresh).
    Lines are non-negative (``AddressMap`` rejects a negative base), so
    only stride candidates can fall below line 0.  Appends to
    ``batch_cycles``; returns ``(effective_latency_sum, demand_loads)``.
    """
    spec = core.spec
    width = spec.issue_width
    rob = spec.rob_entries
    queue_cap = spec.demand_concurrency
    mshr_cap = spec.l1_mshrs
    thr = CoreModel.HIT_PIPELINE_THRESHOLD
    # ``issue_compute(n)`` adds ``n / width``; the same quotients, hoisted.
    slot = 1 / width
    uops_line = cost.uops_per_line
    uops_lookup = cost.uops_per_lookup_base
    uops_sample = cost.uops_per_sample_base
    line_step = uops_line / width
    uops_load = uops_line + 1  # the line's uops plus the load itself
    lookup_step = uops_lookup / width
    sample_step = uops_sample / width

    cfg = hierarchy.config
    lat1, lat2, lat3 = cfg.l1_latency, cfg.l2_latency, cfg.l3_latency
    c1, c2, c3 = hierarchy.l1, hierarchy.l2, hierarchy.l3
    ns1, ways1, where1, pend1 = c1.num_sets, c1.ways, c1._where, c1._pend_lines
    ns2, ways2, where2, pend2 = c2.num_sets, c2.ways, c2._where, c2._pend_lines
    ns3, ways3, where3, pend3 = c3.num_sets, c3.ways, c3._where, c3._pend_lines
    rows1, rows2, rows3 = c1._row_table(), c2._row_table(), c3._row_table()
    # Per level: demand hits, prefetch hits/fills/useful, evictions,
    # evictions of never-used prefetched lines.  A load that misses a level
    # goes on to the next, so demand misses follow from the hits and the
    # load count; L3's are counted, as DRAM demand fetches.
    dh1 = ph1 = pf1 = pu1 = ev1 = eu1 = 0
    dh2 = ph2 = pf2 = pu2 = ev2 = eu2 = 0
    dh3 = dm3 = ph3 = pf3 = pu3 = ev3 = eu3 = 0

    hstats = hierarchy.stats
    tot_lat = hstats.total_latency_cycles
    # The order in which levels first served a demand load in this call
    # (level_hits keeps first-insertion order).
    first_seen: List[str] = []
    # Hardware prefetch requests; each issued software prefetch is one too.
    hw_requests = 0

    dram = hierarchy.dram
    qf = dram.queueing_factor()
    dcfg = dram.config
    dram_row_hit = lat3 + dcfg.row_hit_latency_cycles * qf
    dram_row_miss = lat3 + dcfg.base_latency_cycles * qf
    banks = dcfg.banks
    lines_per_row = ROW_BUFFER_BYTES // CACHE_LINE_BYTES
    open_rows = dram._open_rows
    dram_row_hits = 0

    hw = hierarchy.hw_prefetch_enabled
    if hw:
        nextline = hierarchy.l1_prefetcher
        streamer, strider = hierarchy.l2_prefetcher.prefetchers
        nl_offsets = tuple(range(1, nextline.degree + 1))
        st_degree = streamer.degree
        sd_degree = strider.degree
        sd_range = range(1, sd_degree + 1)
        sd_thr = strider.confidence_threshold
        lines_per_page = streamer.LINES_PER_PAGE
        table_entries = streamer.TABLE_ENTRIES
        last_in_page = streamer._last_in_page
        sd_state = strider._streams.get(0)
        sd_last, sd_stride, sd_conf = sd_state if sd_state else (None, 0, 0)
    st_issued = sd_issued = 0

    if plan is not None:
        sw_distance = plan.distance
        sw_amount = plan.amount_lines
        # Software prefetches fill L3 and, unless they target it, L2 and,
        # for an L1 target, L1.
        sw_fill_l2 = plan.target_level != "l3"
        sw_fill_l1 = plan.target_level == "l1"

    # Core state.  The load queue holds every in-flight demand load, merged
    # loads included, in issue order, as parallel issue-index / completion
    # lists; the window and load-queue limiters read it.  The issue indices
    # of the demand misses among them, which own a fill buffer, are kept in
    # a set (merged loads own none).  Issue indices never repeat, so the
    # indices of popped loads can stay in the set until the batch ends.
    # The MSHR pool is a heap of the completions of demand misses and of
    # software prefetches that hold a fill buffer; the MSHR limiter reads
    # it.  Retirement is lazy, as in ``CoreModel.issue_demand_chunk``: a
    # completed entry stays until a limiter pops it (the window its oldest
    # entry, the queue and MSHR limiters their earliest), and a pop charges
    # a stall only when ``comp > now``.  Every append follows its limiter,
    # so a structure never holds more than its capacity and one pop frees
    # a slot.  A limiter that drops an entry leaves ``now >= comp``, so a
    # demand miss's copy in the other structure is popped later at zero
    # cost.  docs/modeling.md §8 argues that every stall matches the eager
    # per-event core (the oracle's) bit for bit, and gives the one rounding
    # case where the window must free the copy itself.
    now = core.now
    icount = core.instr_count
    lq_idx: List[int] = []
    lq_comp: List[float] = []
    lq_owners: Set[int] = set()
    mshrs: List[float] = []
    window_stall = core.window_stall_cycles
    queue_stall = core.mshr_stall_cycles
    loads = misses = merged = sw_issued = 0
    eff_sum = 0.0
    # line -> completion of its in-flight prefetch.  ``now`` never goes
    # below 0, so a demand load's default of 0.0 reads as "not in flight".
    pfc: Dict[int, float] = {}
    pfc_pop = pfc.pop

    for b, stream_lines, sample_flags in batches:
        batch_start = now
        stream_list = stream_lines.tolist()
        flags_list = sample_flags.tolist()
        n_lookups = len(stream_list)
        loads += n_lookups * row_lines
        # Lookups before this position prefetch the row ``sw_distance`` on.
        sw_stop = n_lookups - sw_distance if plan is not None else 0
        for pos in range(n_lookups):
            if flags_list[pos]:
                icount += uops_sample
                now += sample_step
            icount += uops_lookup
            now += lookup_step
            if pos < sw_stop:
                pf_first = stream_list[pos + sw_distance]
                for line in range(pf_first, pf_first + sw_amount):
                    if line in pfc and pfc[line] > now:
                        # Already in flight: a no-op that takes an issue slot.
                        icount += 1
                        now += slot
                        continue
                    # -- software prefetch (prefetch_timing) --
                    if line in where1:
                        order = rows1[line % ns1]
                        order.remove(line)
                        order.append(line)
                        ph1 += 1
                        pf_latency = lat1
                    else:
                        in_l2 = line in where2
                        if in_l2:
                            order = rows2[line % ns2]
                            order.remove(line)
                            order.append(line)
                            ph2 += 1
                            pf_latency = lat2
                        elif line in where3:
                            order = rows3[line % ns3]
                            order.remove(line)
                            order.append(line)
                            ph3 += 1
                            pf_latency = lat3
                        else:
                            r = line // lines_per_row
                            bank = r % banks
                            if open_rows[bank] == r:
                                dram_row_hits += 1
                                pf_latency = dram_row_hit
                            else:
                                open_rows[bank] = r
                                pf_latency = dram_row_miss
                            order = rows3[line % ns3]
                            if len(order) >= ways3:
                                victim = order.pop(0)
                                del where3[victim]
                                ev3 += 1
                                if victim in pend3:
                                    del pend3[victim]
                                    eu3 += 1
                            elif not order:
                                order = rows3[line % ns3] = []
                            order.append(line)
                            where3[line] = -1
                            pf3 += 1
                            pend3[line] = True
                        if sw_fill_l2:
                            # A line that hit in L2 was just moved to its MRU
                            # end, so the refill only marks it prefetched.
                            if not in_l2:
                                order = rows2[line % ns2]
                                if len(order) >= ways2:
                                    victim = order.pop(0)
                                    del where2[victim]
                                    ev2 += 1
                                    if victim in pend2:
                                        del pend2[victim]
                                        eu2 += 1
                                elif not order:
                                    order = rows2[line % ns2] = []
                                order.append(line)
                                where2[line] = -1
                            pf2 += 1
                            pend2[line] = True
                            if sw_fill_l1:
                                order = rows1[line % ns1]
                                if len(order) >= ways1:
                                    victim = order.pop(0)
                                    del where1[victim]
                                    ev1 += 1
                                    if victim in pend1:
                                        del pend1[victim]
                                        eu1 += 1
                                elif not order:
                                    order = rows1[line % ns1] = []
                                order.append(line)
                                where1[line] = -1
                                pf1 += 1
                                pend1[line] = True
                    # -- core issue (issue_prefetch) --
                    icount += 1
                    now += slot
                    sw_issued += 1
                    if pf_latency > thr:
                        if len(mshrs) >= mshr_cap:
                            earliest = heappop(mshrs)
                            if earliest > now:
                                queue_stall += earliest - now
                                now = earliest
                        comp = now + pf_latency
                        heappush(mshrs, comp)
                        pfc[line] = comp
            base_line = stream_list[pos]
            for line in range(base_line, base_line + row_lines):
                now += line_step
                # -- demand walk (load_timing) --
                if line in where1:
                    order = rows1[line % ns1]
                    order.remove(line)
                    order.append(line)
                    if not dh1:
                        first_seen.append("l1")
                    dh1 += 1
                    if line in pend1:
                        del pend1[line]
                        pu1 += 1
                    latency = lat1
                    observe = False
                else:
                    # An L1 demand miss is what the prefetchers observe.
                    observe = hw
                    if line in where2:
                        order = rows2[line % ns2]
                        order.remove(line)
                        order.append(line)
                        if not dh2:
                            first_seen.append("l2")
                        dh2 += 1
                        if line in pend2:
                            del pend2[line]
                            pu2 += 1
                        latency = lat2
                    else:
                        if line in where3:
                            order = rows3[line % ns3]
                            order.remove(line)
                            order.append(line)
                            if not dh3:
                                first_seen.append("l3")
                            dh3 += 1
                            if line in pend3:
                                del pend3[line]
                                pu3 += 1
                            latency = lat3
                        else:
                            if not dm3:
                                first_seen.append("dram")
                            dm3 += 1
                            r = line // lines_per_row
                            bank = r % banks
                            if open_rows[bank] == r:
                                dram_row_hits += 1
                                latency = dram_row_hit
                            else:
                                open_rows[bank] = r
                                latency = dram_row_miss
                            order = rows3[line % ns3]
                            if len(order) >= ways3:
                                victim = order.pop(0)
                                del where3[victim]
                                ev3 += 1
                                if victim in pend3:
                                    del pend3[victim]
                                    eu3 += 1
                            elif not order:
                                order = rows3[line % ns3] = []
                            order.append(line)
                            where3[line] = -1
                        order = rows2[line % ns2]
                        if len(order) >= ways2:
                            victim = order.pop(0)
                            del where2[victim]
                            ev2 += 1
                            if victim in pend2:
                                del pend2[victim]
                                eu2 += 1
                        elif not order:
                            order = rows2[line % ns2] = []
                        order.append(line)
                        where2[line] = -1
                    order = rows1[line % ns1]
                    if len(order) >= ways1:
                        victim = order.pop(0)
                        del where1[victim]
                        ev1 += 1
                        if victim in pend1:
                            del pend1[victim]
                            eu1 += 1
                    elif not order:
                        order = rows1[line % ns1] = []
                    order.append(line)
                    where1[line] = -1
                tot_lat += latency
                # -- core issue (issue_merged_load / issue_load) --
                icount += uops_load
                pending = pfc_pop(line, 0.0)
                if pending > now:
                    # Late prefetch: the load merges into its MSHR entry and
                    # waits in the load queue, holding no fill buffer.
                    eff_sum += pending - now
                    if obs_hist is not None:
                        obs_hist.observe(pending - now)
                    now += slot
                    merged += 1
                    owner = False
                    queued = pending > now
                else:
                    eff_sum += latency
                    if obs_hist is not None:
                        obs_hist.observe(latency)
                    now += slot
                    owner = queued = latency > thr
                if queued:
                    while lq_idx and icount - lq_idx[0] >= rob:
                        comp = lq_comp[0]
                        if comp > now:
                            wait = comp - now
                            now += wait
                            window_stall += wait
                            if now < comp and lq_idx[0] in lq_owners:
                                # ``now + (comp - now)`` rounded below comp,
                                # so the miss's fill buffer would still look
                                # busy; the eager model frees it here.
                                mshrs.remove(comp)
                                heapify(mshrs)
                        del lq_idx[0], lq_comp[0]
                    if len(lq_comp) >= queue_cap:
                        earliest = min(lq_comp)
                        if earliest > now:
                            queue_stall += earliest - now
                            now = earliest
                        k = lq_comp.index(earliest)
                        del lq_idx[k], lq_comp[k]
                    if owner:
                        misses += 1
                        if len(mshrs) >= mshr_cap:
                            earliest = heappop(mshrs)
                            if earliest > now:
                                queue_stall += earliest - now
                                now = earliest
                        pending = now + latency  # the miss's own completion
                        heappush(mshrs, pending)
                        lq_owners.add(icount)
                    lq_idx.append(icount)
                    lq_comp.append(pending)
                if not observe:
                    continue
                # -- hardware prefetch (hw_prefetch_candidates) --
                # The next-line candidates come first and fill L1 and L2;
                # the L2 prefetchers' fill only L2.  Each candidate is
                # filtered against its level as it is listed, before any
                # candidate is fetched.
                cands = []
                for d in nl_offsets:
                    c = line + d
                    if c not in where1:
                        cands.append(c)
                n_l1 = len(cands)
                page = line // lines_per_page
                last = last_in_page.get(page)
                last_in_page[page] = line
                if last is not None and last != line:
                    # The streamer's run: up to its degree lines on in the
                    # direction of travel, stopping at the page boundary.
                    if line > last:
                        st_run = range(
                            line + 1,
                            min(line + st_degree, (page + 1) * lines_per_page - 1) + 1,
                        )
                    else:
                        st_run = range(
                            line - 1, max(line - st_degree, page * lines_per_page) - 1, -1
                        )
                    st_issued += len(st_run)
                    for c in st_run:
                        if c not in where2:
                            cands.append(c)
                    if len(last_in_page) > table_entries:
                        last_in_page.clear()
                        last_in_page[page] = line
                else:
                    st_run = ()
                if sd_last is None:
                    sd_last = line
                new_stride = line - sd_last
                if new_stride == sd_stride and new_stride != 0:
                    sd_conf = sd_conf + 1 if sd_conf < sd_thr else sd_thr
                else:
                    sd_stride = new_stride
                    sd_conf = 1 if new_stride != 0 else 0
                sd_last = line
                if sd_conf >= sd_thr and sd_stride != 0:
                    sd_issued += sd_degree
                    for d in sd_range:
                        c = line + sd_stride * d
                        # A repeat of a streamer candidate is dropped, as
                        # the composite prefetcher drops it.
                        if c >= 0 and c not in st_run and c not in where2:
                            cands.append(c)
                for c in cands:
                    # The first ``n_l1`` candidates are the next-line ones.
                    if n_l1:
                        n_l1 -= 1
                        to_l1 = True
                    else:
                        to_l1 = False
                    if c in pfc and pfc[c] > now:
                        continue
                    # -- hardware prefetch (prefetch_timing) --
                    hw_requests += 1
                    if c in where1:
                        order = rows1[c % ns1]
                        order.remove(c)
                        order.append(c)
                        ph1 += 1
                        pf_latency = lat1
                    else:
                        in_l2 = c in where2
                        if in_l2:
                            order = rows2[c % ns2]
                            order.remove(c)
                            order.append(c)
                            ph2 += 1
                            pf_latency = lat2
                        elif c in where3:
                            order = rows3[c % ns3]
                            order.remove(c)
                            order.append(c)
                            ph3 += 1
                            pf_latency = lat3
                        else:
                            r = c // lines_per_row
                            bank = r % banks
                            if open_rows[bank] == r:
                                dram_row_hits += 1
                                pf_latency = dram_row_hit
                            else:
                                open_rows[bank] = r
                                pf_latency = dram_row_miss
                            order = rows3[c % ns3]
                            if len(order) >= ways3:
                                victim = order.pop(0)
                                del where3[victim]
                                ev3 += 1
                                if victim in pend3:
                                    del pend3[victim]
                                    eu3 += 1
                            elif not order:
                                order = rows3[c % ns3] = []
                            order.append(c)
                            where3[c] = -1
                            pf3 += 1
                            pend3[c] = True
                        if not in_l2:
                            order = rows2[c % ns2]
                            if len(order) >= ways2:
                                victim = order.pop(0)
                                del where2[victim]
                                ev2 += 1
                                if victim in pend2:
                                    del pend2[victim]
                                    eu2 += 1
                            elif not order:
                                order = rows2[c % ns2] = []
                            order.append(c)
                            where2[c] = -1
                        pf2 += 1
                        pend2[c] = True
                        if to_l1:
                            order = rows1[c % ns1]
                            if len(order) >= ways1:
                                victim = order.pop(0)
                                del where1[victim]
                                ev1 += 1
                                if victim in pend1:
                                    del pend1[victim]
                                    eu1 += 1
                            elif not order:
                                order = rows1[c % ns1] = []
                            order.append(c)
                            where1[c] = -1
                            pf1 += 1
                            pend1[c] = True
                    if pf_latency > thr:
                        pfc[c] = now + pf_latency
        # -- drain: wait for every demand load; prefetches need not land --
        if lq_comp:
            last_comp = max(lq_comp)
            if last_comp > now:
                now = last_comp
            lq_idx.clear()
            lq_comp.clear()
        lq_owners.clear()
        mshrs.clear()
        batch_cycles.append(now - batch_start)
        pfc.clear()
        if obs is not None:
            obs.tracer.add_sim_span(
                f"batch[{b}]", "sim.embedding", batch_start,
                now - batch_start, tid=obs_tid,
            )

    # -- write back --
    dm1 = loads - dh1
    dm2 = dm1 - dh2
    for cache, counts in (
        (c1, (dh1, dm1, ph1, pf1, pu1, ev1, eu1)),
        (c2, (dh2, dm2, ph2, pf2, pu2, ev2, eu2)),
        (c3, (dh3, dm3, ph3, pf3, pu3, ev3, eu3)),
    ):
        cs = cache.stats
        cs.demand_hits += counts[0]
        cs.demand_misses += counts[1]
        cs.prefetch_hits += counts[2]
        cs.prefetch_fills += counts[3]
        cs.prefetch_useful += counts[4]
        cs.evictions += counts[5]
        cs.prefetch_evicted_unused += counts[6]
        if counts[3]:
            cache._has_pending = True
    # Demand hits at each level, and L3 demand misses, are exactly the
    # loads each level served.
    served = {"l1": dh1, "l2": dh2, "l3": dh3, "dram": dm3}
    level_hits = hstats.level_hits
    for level in first_seen:
        level_hits[level] = level_hits.get(level, 0) + served[level]
    hstats.total_latency_cycles = tot_lat
    hstats.demand_accesses += loads
    hstats.prefetch_requests += hw_requests + sw_issued
    # DRAM serves the L3 demand misses and every L3 prefetch fill.
    dram_acc = dm3 + pf3
    hstats.dram_bytes += CACHE_LINE_BYTES * dram_acc
    dram.accesses += dram_acc
    dram.bytes_transferred += CACHE_LINE_BYTES * dram_acc
    dram.row_hits += dram_row_hits
    if hw:
        # The next-line prefetcher fires on every L1 demand miss.
        nextline.issued += nextline.degree * dm1
        streamer.issued += st_issued
        strider.issued += sd_issued
        if sd_last is not None:
            strider._streams[0] = (sd_last, sd_stride, sd_conf)
    core.now = now
    core.instr_count = icount
    core.loads += loads
    core.misses += misses
    core.merged_loads += merged
    core.prefetches += sw_issued
    core.window_stall_cycles = window_stall
    core.mshr_stall_cycles = queue_stall
    return eff_sum, loads
