"""Analytic out-of-order core model.

:class:`CoreModel` converts a stream of issue events (compute micro-ops and
loads with known service latency) into elapsed cycles, honouring the two
resources that bound memory-level parallelism on a real core:

* the **instruction window** (ROB): the core can run ahead of the oldest
  incomplete load by at most ``rob_entries`` instructions, after which it
  takes a *full-window stall* — the phenomenon the paper's synergy argument
  is built on ("prefetching helps in freeing CPU pipeline resources,
  avoiding issues like full window stalls");
* the **MSHR / fill-buffer file**: at most ``l1_mshrs`` misses may be
  outstanding, bounding achievable MLP.

The model is an interval-style approximation (Karkhanis & Smith lineage):
cache hits are pipelined and cost only issue bandwidth, misses are tracked
as in-flight intervals that overlap until a window or MSHR limit forces the
issue cursor to wait.

:class:`CoreModel` holds the counters and the issue cursor.  The embedding
walks drive it in bulk: :meth:`CoreModel.issue_demand_chunk` replays a
demand-only chunk, and the fused kernel
(:func:`repro.engine.embedding_exec._fused_walk`) runs the limiters inline
on lazily retired state and writes the counters back.  The per-event form
of the same model — one call per load, prefetch or merged load, retiring
eagerly — is the oracle's ``OracleCore`` in ``tests/embedding_oracle.py``;
``tests/test_engine_fastpath.py`` and ``tests/test_cpu_core.py`` diff the
two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..errors import ConfigError

__all__ = ["CoreSpec", "CoreModel"]


@dataclass(frozen=True)
class CoreSpec:
    """Static out-of-order resources of one physical core."""

    rob_entries: int = 224
    issue_width: int = 4
    l1_mshrs: int = 12
    #: Maximum outstanding *demand* misses.  Demand loads occupy the load
    #: queue and scheduler until completion, so real cores sustain fewer
    #: outstanding demand misses than fill buffers exist; software
    #: prefetches retire immediately and can use the full MSHR file.  This
    #: asymmetry is precisely why the paper's application-initiated
    #: prefetching speeds up a single core despite identical peak MLP.
    demand_concurrency: int = 6
    fp32_flops_per_cycle: float = 64.0
    frequency_hz: float = 2.4e9

    def __post_init__(self) -> None:
        if self.rob_entries <= 0:
            raise ConfigError("rob_entries must be positive")
        if self.issue_width <= 0:
            raise ConfigError("issue_width must be positive")
        if self.l1_mshrs <= 0:
            raise ConfigError("l1_mshrs must be positive")
        if not 0 < self.demand_concurrency <= self.l1_mshrs:
            raise ConfigError(
                "demand_concurrency must be in [1, l1_mshrs] "
                f"(got {self.demand_concurrency} vs {self.l1_mshrs} MSHRs)"
            )
        if self.fp32_flops_per_cycle <= 0:
            raise ConfigError("fp32_flops_per_cycle must be positive")

    def window_mlp(self, instructions_per_miss: float) -> float:
        """Window-bounded MLP for a given miss spacing (instructions)."""
        if instructions_per_miss <= 0:
            raise ConfigError("instructions_per_miss must be positive")
        return min(self.l1_mshrs, self.rob_entries / instructions_per_miss)


class CoreModel:
    """Mutable timing state of one hardware thread.

    Typical use from the execution engines::

        core = CoreModel(spec)
        core.issue_demand_chunk(latencies, pre_uops)
        cycles = core.drain()
    """

    #: A load served within this many cycles is treated as pipelined (hit).
    #: Covers L1 (5 cycles) and L2 (14 cycles) hits — an OoO core hides
    #: both.  Known divergence: because L1-polluting prefetches are
    #: backstopped by a free L2 hit, Fig 10b's degradation at large
    #: prefetch distances does not reproduce until the look-ahead falls
    #: off the batch boundary (see EXPERIMENTS.md).
    HIT_PIPELINE_THRESHOLD = 16.0

    def __init__(self, spec: CoreSpec) -> None:
        self.spec = spec
        self.reset()

    # -- issue events -------------------------------------------------------

    def issue_compute(self, n_uops: int) -> None:
        """Issue ``n_uops`` non-memory micro-ops (cost: issue bandwidth)."""
        if n_uops < 0:
            raise ConfigError("uop count must be non-negative")
        self.instr_count += n_uops
        self.now += n_uops / self.spec.issue_width

    def issue_demand_chunk(
        self, latencies: np.ndarray, pre_uops: np.ndarray
    ) -> None:
        """Replay many (compute, demand load) event pairs in bulk.

        Event ``i`` issues ``pre_uops[i]`` micro-ops, then one demand load
        of latency ``latencies[i]``: a pipelined hit at or below
        :attr:`HIT_PIPELINE_THRESHOLD`, else a miss that takes a
        load-queue slot and a fill buffer until it completes, after the
        full-window, load-queue and fill-buffer limiters in that order.
        Runs of hits advance the cursor arithmetically — a hit reads no
        limiter state, and retirement is monotone and idempotent, so
        deferring it to the next miss (which re-checks every limiter) is
        exact.

        The core must be drained (no load in flight), as it is at the
        start of every batch.  Bit-exact equivalence with the per-event
        calls requires a power-of-two ``issue_width``: then every
        ``uops / width`` term is a multiple of ``1 / width``, all partial
        sums are exactly representable, and one fused add equals the
        per-event add sequence.  Callers (the engine's bulk path) must not
        use this method on other widths.
        """
        if self._last_completion > self.now:
            raise ConfigError("issue_demand_chunk needs a drained core")
        spec = self.spec
        width = spec.issue_width
        miss_idx = np.nonzero(latencies > self.HIT_PIPELINE_THRESHOLD)[0].tolist()
        # Cumulative uops including each load's own issue slot, for O(1)
        # hit-run sums (integer arithmetic — exact).
        csum = np.empty(latencies.size + 1, dtype=np.int64)
        csum[0] = 0
        np.cumsum(pre_uops + 1, out=csum[1:])
        lat_list = latencies.tolist()
        uop_list = pre_uops.tolist()
        rob = spec.rob_entries
        queue_cap = spec.demand_concurrency
        mshr_cap = spec.l1_mshrs
        now = self.now
        icount = self.instr_count
        # The stall totals accumulate in place, in the per-event order.
        window_stall = self.window_stall_cycles
        queue_stall = self.mshr_stall_cycles
        # In-flight demand misses, oldest first; each owns a fill buffer.
        idxs: List[int] = []
        comps: List[float] = []

        # Retirement is lazy: completed entries stay in the lists until a
        # limiter loop pops them.  A completed entry has ``comp <= now``, so
        # its pop records zero stall and changes no observable state — and
        # whenever a loop's head/min is still live it coincides with the
        # eagerly-retired head/min, so every stall recorded below matches
        # the per-event model exactly while each entry is touched once
        # instead of being rescanned on every miss.
        prev = 0
        for m in miss_idx:
            if m > prev:
                total = int(csum[m] - csum[prev])
                icount += total
                now += total / width
            icount += uop_list[m] + 1
            now += uop_list[m] / width
            now += 1.0 / width
            while comps and icount - idxs[0] >= rob:
                wait = comps[0] - now
                if wait > 0.0:
                    now += wait
                    window_stall += wait
                del idxs[0], comps[0]
            while len(comps) >= queue_cap:
                earliest = min(comps)
                if earliest > now:
                    queue_stall += earliest - now
                    now = earliest
                i = comps.index(earliest)
                del comps[i], idxs[i]
            while len(comps) >= mshr_cap:
                earliest = min(comps)
                if earliest > now:
                    queue_stall += earliest - now
                    now = earliest
                i = comps.index(earliest)
                del comps[i], idxs[i]
            idxs.append(icount)
            comps.append(now + lat_list[m])
            prev = m + 1
        n = len(lat_list)
        if prev < n:
            total = int(csum[n] - csum[prev])
            icount += total
            now += total / width
        self.now = now
        self.instr_count = icount
        self.loads += n
        self.misses += len(miss_idx)
        self.window_stall_cycles = window_stall
        self.mshr_stall_cycles = queue_stall
        if comps:
            self._last_completion = max(comps)

    # -- finishing and reporting ---------------------------------------------

    def drain(self) -> float:
        """Wait for all in-flight misses; return total elapsed cycles.

        In-flight prefetches need not complete for the program to finish.
        """
        if self._last_completion > self.now:
            self.now = self._last_completion
        self._last_completion = 0.0
        return self.now

    @property
    def stall_cycles(self) -> float:
        """Cycles lost to full-window plus MSHR-full stalls."""
        return self.window_stall_cycles + self.mshr_stall_cycles

    @property
    def stall_fraction(self) -> float:
        """Fraction of elapsed cycles spent stalled (0 when nothing ran)."""
        return self.stall_cycles / self.now if self.now > 0 else 0.0

    @property
    def ipc(self) -> float:
        """Achieved instructions per cycle."""
        return self.instr_count / self.now if self.now > 0 else 0.0

    @property
    def utilization(self) -> float:
        """Issue-slot utilization in [0, 1] (IPC / issue width)."""
        return min(1.0, self.ipc / self.spec.issue_width)

    def publish_metrics(self, registry, **labels: str) -> None:
        """Accumulate this core's counters into an obs metrics registry.

        ``registry`` is a :class:`repro.obs.metrics.MetricsRegistry`; the
        engines call this once per run (the model is created fresh per
        run, so cumulative counters are per-run deltas already).
        """
        registry.counter("core.instructions", **labels).inc(self.instr_count)
        registry.counter("core.loads", **labels).inc(self.loads)
        registry.counter("core.misses", **labels).inc(self.misses)
        registry.counter("core.merged_loads", **labels).inc(self.merged_loads)
        registry.counter("core.prefetches", **labels).inc(self.prefetches)
        registry.counter("core.window_stall_cycles", **labels).inc(
            self.window_stall_cycles
        )
        registry.counter("core.mshr_stall_cycles", **labels).inc(
            self.mshr_stall_cycles
        )

    def reset(self) -> None:
        """Return to time zero, dropping all state."""
        self.now = 0.0
        self.instr_count = 0
        self.loads = 0
        self.misses = 0
        self.window_stall_cycles = 0.0
        self.mshr_stall_cycles = 0.0
        self.prefetches = 0
        self.merged_loads = 0
        # Latest completion of a demand miss still in flight after
        # :meth:`issue_demand_chunk`; :meth:`drain` waits for it.
        self._last_completion = 0.0
