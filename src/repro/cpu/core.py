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

The fused embedding kernel (:func:`repro.engine.embedding_exec._fused_walk`)
inlines the issue and stall methods on lazily retired state; a change to
them must be made there too (``tests/test_engine_fastpath.py`` diffs the
two).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Tuple

import numpy as np

from ..errors import ConfigError

__all__ = ["CoreSpec", "CoreModel"]

_INF = float("inf")


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
        core.issue_compute(n_uops)
        core.issue_load(latency, is_miss=latency > hit_threshold)
        ...
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
        self.now = 0.0
        self.instr_count = 0
        self.loads = 0
        self.misses = 0
        self.window_stall_cycles = 0.0
        self.mshr_stall_cycles = 0.0
        self.prefetches = 0
        self.merged_loads = 0
        # (issue instruction index, completion time, owns_mshr) of in-flight
        # demand loads, oldest-issue first.  All entries occupy the load
        # queue (bounding demand concurrency); only ``owns_mshr`` entries
        # hold a fill buffer — merged loads (demand hits on an in-flight
        # prefetch) share the prefetch's buffer.
        self._inflight: Deque[Tuple[int, float, bool]] = deque()
        self._queued_count = 0  # load-queue occupancy (all kinds)
        self._mshr_demand = 0  # fill buffers owned by demand loads
        # Completion times of in-flight prefetch fetches (share the MSHRs).
        self._inflight_prefetch: Deque[float] = deque()
        # Earliest completion in each deque (inf when empty).  Retirement
        # only has work to do once ``now`` passes one of these, which turns
        # the per-issue retirement probe into a float compare instead of a
        # deque scan.
        self._min_inflight = _INF
        self._min_prefetch = _INF

    # -- issue events -------------------------------------------------------

    def issue_compute(self, n_uops: int) -> None:
        """Issue ``n_uops`` non-memory micro-ops (cost: issue bandwidth)."""
        if n_uops < 0:
            raise ConfigError("uop count must be non-negative")
        self.instr_count += n_uops
        self.now += n_uops / self.spec.issue_width

    def issue_load(self, latency: float, is_miss: bool = True) -> float:
        """Issue one load with service latency ``latency`` cycles.

        Returns the stall charged to this load (0 when it overlapped fully).
        Hits (``is_miss=False`` or short latency) are pipelined and cost
        only an issue slot.
        """
        self.instr_count += 1
        self.now += 1.0 / self.spec.issue_width
        self.loads += 1
        self._retire_completed()
        if not is_miss and latency <= self.HIT_PIPELINE_THRESHOLD:
            return 0.0
        self.misses += 1
        stall = 0.0
        stall += self._enforce_window()
        stall += self._enforce_load_queue()
        # Fill-buffer limit: demand + prefetch misses share the MSHR file.
        stall += self._enforce_mshr_capacity()
        completion = self.now + latency
        self._inflight.append((self.instr_count, completion, True))
        if completion < self._min_inflight:
            self._min_inflight = completion
        self._queued_count += 1
        self._mshr_demand += 1
        return stall

    def issue_demand_chunk(
        self, latencies: np.ndarray, pre_uops: np.ndarray
    ) -> None:
        """Replay many (compute, demand load) event pairs in bulk.

        Event ``i`` is ``issue_compute(pre_uops[i])`` followed by
        ``issue_load(latencies[i], is_miss=latencies[i] > threshold)``.
        Runs of pipelined hits advance the cursor arithmetically — a hit
        reads no limiter state, and retirement is monotone and idempotent,
        so deferring it to the next miss (which re-checks every limiter) is
        exact.  Misses go through :meth:`issue_load` unchanged.

        Bit-exact equivalence with the scalar calls requires a
        power-of-two ``issue_width``: then every ``uops / width`` term is
        a multiple of ``1 / width``, all partial sums are exactly
        representable, and one fused add equals the scalar add sequence.
        Callers (the engine's bulk path) must not use this method on other
        widths.
        """
        spec = self.spec
        width = spec.issue_width
        if self._inflight_prefetch or any(not e[2] for e in self._inflight):
            # Prefetches (or merged loads) are in flight: limiter decisions
            # would involve them, so replay through the scalar calls.
            thr = self.HIT_PIPELINE_THRESHOLD
            for uops, latency in zip(pre_uops.tolist(), latencies.tolist()):
                self.issue_compute(uops)
                self.issue_load(latency, is_miss=latency > thr)
            return
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
        # The stall totals accumulate in place, in the scalar calls' order.
        window_stall = self.window_stall_cycles
        queue_stall = self.mshr_stall_cycles
        # Every in-flight entry owns its MSHR here (checked above), so the
        # deque flattens to parallel issue-index / completion-time lists.
        idxs = [e[0] for e in self._inflight]
        comps = [e[1] for e in self._inflight]

        # Retirement is lazy: completed entries stay in the lists until a
        # limiter loop pops them.  A completed entry has ``comp <= now``, so
        # its pop records zero stall and changes no observable state — and
        # whenever a loop's head/min is still live it coincides with the
        # eagerly-retired head/min, so every stall recorded below matches
        # the scalar path exactly while each entry is touched once instead
        # of being rescanned on every miss.
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
        if any(c <= now for c in comps):
            idxs = [i for i, c in zip(idxs, comps) if c > now]
            comps = [c for c in comps if c > now]
        self.now = now
        self.instr_count = icount
        self.loads += n
        self.misses += len(miss_idx)
        self.window_stall_cycles = window_stall
        self.mshr_stall_cycles = queue_stall
        self._inflight = deque((i, c, True) for i, c in zip(idxs, comps))
        self._queued_count = len(comps)
        self._mshr_demand = len(comps)
        self._min_inflight = min(comps) if comps else _INF

    def issue_merged_load(self, completion: float) -> float:
        """Issue a demand load whose line is already being fetched.

        The fetch was started by an earlier (software or hardware)
        prefetch, so the load merges into the existing MSHR entry: it
        occupies an issue slot, a window entry, and a load-queue slot
        until ``completion`` — but no fill buffer of its own.  This is the
        secondary-miss merge real MSHRs perform.
        """
        self.instr_count += 1
        self.now += 1.0 / self.spec.issue_width
        self.loads += 1
        self.merged_loads += 1
        self._retire_completed()
        if completion <= self.now:
            return 0.0
        stall = self._enforce_window()
        stall += self._enforce_load_queue()
        self._inflight.append((self.instr_count, completion, False))
        if completion < self._min_inflight:
            self._min_inflight = completion
        self._queued_count += 1
        return stall

    def _enforce_load_queue(self) -> float:
        """Wait until a load-queue slot frees; return the stall."""
        stall = 0.0
        while self._queued_count >= self.spec.demand_concurrency:
            earliest = self._min_inflight
            wait = max(0.0, earliest - self.now)
            self.now = max(self.now, earliest)
            stall += wait
            self.mshr_stall_cycles += wait
            self._retire_completed()
        return stall

    def _enforce_window(self) -> float:
        """Full-window stall: issue at most ROB entries past the oldest
        incomplete load."""
        stall = 0.0
        while self._inflight and (
            self.instr_count - self._inflight[0][0] >= self.spec.rob_entries
        ):
            head = self._inflight[0]
            wait = max(0.0, head[1] - self.now)
            self.now += wait
            stall += wait
            self.window_stall_cycles += wait
            self._inflight.popleft()
            self._queued_count -= 1
            if head[2]:
                self._mshr_demand -= 1
            if head[1] <= self._min_inflight:
                self._min_inflight = (
                    min(e[1] for e in self._inflight) if self._inflight else _INF
                )
            self._retire_completed()
        return stall

    def issue_prefetch(self, latency: float) -> float:
        """Issue one software-prefetch instruction with fetch ``latency``.

        Prefetches cost an issue slot and a fill buffer but retire
        immediately — they never occupy the load queue or trigger
        full-window stalls, which is why a prefetch stream sustains more
        outstanding misses than demand loads can.  Returns the stall
        charged while waiting for a fill buffer.
        """
        self.instr_count += 1
        self.now += 1.0 / self.spec.issue_width
        self.prefetches += 1
        self._retire_completed()
        if latency <= self.HIT_PIPELINE_THRESHOLD:
            return 0.0
        stall = self._enforce_mshr_capacity()
        completion = self.now + latency
        self._inflight_prefetch.append(completion)
        if completion < self._min_prefetch:
            self._min_prefetch = completion
        return stall

    def _enforce_mshr_capacity(self) -> float:
        """Wait until a fill buffer is free; return the stall."""
        stall = 0.0
        while (
            self._mshr_demand + len(self._inflight_prefetch) >= self.spec.l1_mshrs
        ):
            candidates = []
            if self._mshr_demand:
                candidates.append(min(t for _, t, owns in self._inflight if owns))
            if self._inflight_prefetch:
                candidates.append(self._min_prefetch)
            earliest = min(candidates)
            wait = max(0.0, earliest - self.now)
            self.now = max(self.now, earliest)
            stall += wait
            self.mshr_stall_cycles += wait
            self._retire_completed()
        return stall

    def _retire_completed(self) -> None:
        # Completion times are not FIFO-ordered (latencies vary per access),
        # so retirement scans the whole deque — but only once ``now`` has
        # actually passed the earliest completion, which the tracked minima
        # detect with one compare (the overwhelmingly common case is "no
        # retirement due", so this probe dominates the issue path).
        now = self.now
        if self._min_inflight <= now:
            self._inflight = deque(
                entry for entry in self._inflight if entry[1] > now
            )
            self._queued_count = len(self._inflight)
            self._mshr_demand = sum(1 for e in self._inflight if e[2])
            self._min_inflight = (
                min(e[1] for e in self._inflight) if self._inflight else _INF
            )
        if self._min_prefetch <= now:
            self._inflight_prefetch = deque(
                t for t in self._inflight_prefetch if t > now
            )
            self._min_prefetch = (
                min(self._inflight_prefetch) if self._inflight_prefetch else _INF
            )

    # -- finishing and reporting ---------------------------------------------

    def drain(self) -> float:
        """Wait for all in-flight misses; return total elapsed cycles."""
        if self._inflight:
            last = max(t for _, t, _q in self._inflight)
            self.now = max(self.now, last)
            self._inflight.clear()
            self._queued_count = 0
            self._mshr_demand = 0
        # In-flight prefetches need not complete for the program to finish.
        self._inflight_prefetch.clear()
        self._min_inflight = _INF
        self._min_prefetch = _INF
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
        self._inflight.clear()
        self._queued_count = 0
        self._mshr_demand = 0
        self._inflight_prefetch.clear()
        self._min_inflight = _INF
        self._min_prefetch = _INF
