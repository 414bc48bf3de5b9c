"""DRAM latency and bandwidth model.

Two effects matter for the paper's results:

1. **Unloaded latency** — an LLC miss pays ~90-110 ns on the evaluated
   platforms.
2. **Bandwidth queueing** — Fig 8 shows 24 cores drive 15.5x the bandwidth
   of one core, and multi-core speedups in Figs 12/13/16 are capped by
   contention ("Zen3 ... severe contention in memory bandwidth with 128
   threads").  We model queueing with an M/D/1-style inflation of the
   unloaded latency as offered load approaches the channel peak.

An optional open-page row-buffer model gives consecutive same-row accesses
(the 8 lines of one embedding vector) a cheaper latency, mirroring real
DDR4/DDR5 behaviour.

The fused embedding kernel (:func:`repro.engine.embedding_exec._fused_walk`)
inlines :meth:`DRAMModel.access` on ``_open_rows``; a change to it must be
made there too (``tests/test_engine_fastpath.py`` diffs the two).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..units import CACHE_LINE_BYTES

__all__ = ["DRAMModel", "DRAMConfig"]

#: Queueing inflation is capped here to keep the model finite at saturation.
MAX_UTILIZATION = 0.95

#: Bytes in one DRAM row (page) for the row-buffer model.
ROW_BUFFER_BYTES = 8192


@dataclass(frozen=True)
class DRAMConfig:
    """Static DRAM channel parameters.

    Parameters
    ----------
    base_latency_cycles:
        Unloaded LLC-miss-to-data latency in core cycles.
    peak_bandwidth_bytes_per_cycle:
        Channel peak converted to bytes per core cycle
        (e.g. 140 GB/s at 2.4 GHz = ~58.3 B/cycle).
    banks:
        Number of independent banks for the row-buffer model.
    row_hit_latency_cycles:
        Latency when the access hits an open row buffer.
    """

    base_latency_cycles: float = 240.0
    peak_bandwidth_bytes_per_cycle: float = 58.3
    banks: int = 16
    row_hit_latency_cycles: float = 120.0

    def __post_init__(self) -> None:
        if self.base_latency_cycles <= 0:
            raise ConfigError("base latency must be positive")
        if self.peak_bandwidth_bytes_per_cycle <= 0:
            raise ConfigError("peak bandwidth must be positive")
        if self.banks <= 0:
            raise ConfigError("bank count must be positive")
        if self.row_hit_latency_cycles > self.base_latency_cycles:
            raise ConfigError("row-hit latency cannot exceed row-miss latency")


class DRAMModel:
    """Stateful DRAM channel shared by all cores of a socket."""

    def __init__(self, config: DRAMConfig = DRAMConfig()) -> None:
        self.config = config
        self.bytes_transferred = 0
        self.accesses = 0
        self.row_hits = 0
        self._open_rows = [-1] * config.banks
        self._utilization = 0.0
        self._tenant_utilization = 0.0
        self._tenant_cap: "float | None" = None

    # -- load-dependent latency -------------------------------------------

    def set_utilization(self, rho: float) -> None:
        """Set the channel's offered-load fraction (0 = idle, 1 = peak).

        The multicore engine computes aggregate demand across cores and
        pushes it here; subsequent accesses see inflated latency.
        """
        if rho < 0:
            raise ConfigError(f"utilization must be non-negative, got {rho}")
        self._utilization = min(rho, MAX_UTILIZATION)

    @property
    def utilization(self) -> float:
        """Current offered-load fraction, capped at :data:`MAX_UTILIZATION`."""
        return self._utilization

    # -- tenant pressure ----------------------------------------------------

    def set_tenant_utilization(self, rho: float) -> None:
        """Extra channel load from co-located foreign tenants.

        Added on top of our own offered load when computing the queueing
        factor (the combined load is capped at :data:`MAX_UTILIZATION`).
        With tenant load 0.0 (the default) the model is byte-identical to
        the single-tenant channel.
        """
        if rho < 0:
            raise ConfigError(
                f"tenant utilization must be non-negative, got {rho}"
            )
        self._tenant_utilization = float(rho)

    def set_tenant_throttle(self, cap: "float | None") -> None:
        """MBA-style per-tenant bandwidth throttle.

        ``cap`` bounds the channel fraction tenants may consume (their
        demand above it is delayed outside this channel's queue and does
        not inflate *our* latency); ``None`` removes the throttle.
        """
        if cap is not None and cap < 0:
            raise ConfigError(f"tenant bandwidth cap must be non-negative, got {cap}")
        self._tenant_cap = None if cap is None else float(cap)

    @property
    def tenant_utilization(self) -> float:
        """Offered tenant load (before throttling)."""
        return self._tenant_utilization

    @property
    def effective_tenant_utilization(self) -> float:
        """Tenant load that actually reaches the channel (after throttle)."""
        if self._tenant_cap is None:
            return self._tenant_utilization
        return min(self._tenant_utilization, self._tenant_cap)

    def total_utilization(self) -> float:
        """Combined own + effective tenant load the queueing model sees."""
        rho = self._utilization
        if self._tenant_utilization > 0.0:
            rho = min(rho + self.effective_tenant_utilization, MAX_UTILIZATION)
        return rho

    #: Linear and saturating coefficients of the queueing-delay curve.
    QUEUE_LINEAR = 0.15
    QUEUE_SATURATING = 0.30

    def queueing_factor(self) -> float:
        """Latency inflation from bandwidth queueing.

        ``1 + a*rho + b*rho^2 / (1 - rho)``: gentle at mid loads (Fig 8
        shows only +14% execution time at 24 cores / ~47% channel load)
        and sharply saturating near peak (the paper's Zen3 128-thread
        contention case).
        """
        rho = self.total_utilization()
        return 1.0 + self.QUEUE_LINEAR * rho + self.QUEUE_SATURATING * rho * rho / (
            1.0 - rho
        )

    # -- accesses ----------------------------------------------------------

    def access(self, line: int) -> float:
        """Fetch one cache line; return its latency in cycles."""
        self.accesses += 1
        self.bytes_transferred += CACHE_LINE_BYTES
        row = (line * CACHE_LINE_BYTES) // ROW_BUFFER_BYTES
        bank = row % self.config.banks
        if self._open_rows[bank] == row:
            self.row_hits += 1
            base = self.config.row_hit_latency_cycles
        else:
            self._open_rows[bank] = row
            base = self.config.base_latency_cycles
        return base * self.queueing_factor()

    def access_batch(self, lines: np.ndarray) -> np.ndarray:
        """Fetch many cache lines; return their latencies in access order.

        Exactly equivalent to calling :meth:`access` per line in order: an
        access row-hits iff the previous access *to the same bank* opened
        the same row, and per-bank access order is recovered with a stable
        sort by bank (equal banks keep their stream order).  The queueing
        factor is constant within a batch — utilization only changes
        between batches via :meth:`set_utilization` — so latency scaling
        is the same multiply the scalar path performs.
        """
        n = lines.size
        if not n:
            return np.empty(0, dtype=np.float64)
        cfg = self.config
        self.accesses += n
        self.bytes_transferred += CACHE_LINE_BYTES * n
        rows = (lines * CACHE_LINE_BYTES) // ROW_BUFFER_BYTES
        banks = rows % cfg.banks
        order = np.argsort(banks, kind="stable")
        rs, bs = rows[order], banks[order]
        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(bs[1:], bs[:-1], out=first[1:])
        hit_sorted = np.empty(n, dtype=bool)
        np.equal(rs[1:], rs[:-1], out=hit_sorted[1:])
        hit_sorted[first] = rs[first] == np.asarray(self._open_rows)[bs[first]]
        hit = np.empty(n, dtype=bool)
        hit[order] = hit_sorted
        self.row_hits += int(np.count_nonzero(hit))
        # The last access per bank leaves its row open: group ends are one
        # before the next group's start (and the final element).
        last = np.empty(n, dtype=bool)
        last[-1] = True
        last[:-1] = first[1:]
        for b, r in zip(bs[last].tolist(), rs[last].tolist()):
            self._open_rows[b] = r
        return (
            np.where(hit, cfg.row_hit_latency_cycles, cfg.base_latency_cycles)
            * self.queueing_factor()
        )

    # -- reporting ---------------------------------------------------------

    def bandwidth_gb_s(self, elapsed_cycles: float, frequency_hz: float) -> float:
        """Achieved bandwidth in GB/s over ``elapsed_cycles`` of execution."""
        if elapsed_cycles <= 0:
            return 0.0
        seconds = elapsed_cycles / frequency_hz
        return self.bytes_transferred / seconds / 1e9

    def publish_metrics(self, registry, **labels: str) -> None:
        """Accumulate channel counters into an obs metrics registry."""
        registry.counter("dram.accesses", **labels).inc(self.accesses)
        registry.counter("dram.row_hits", **labels).inc(self.row_hits)
        registry.counter("dram.bytes", **labels).inc(self.bytes_transferred)
        registry.gauge("dram.utilization", **labels).set(self._utilization)
        if self._tenant_utilization > 0.0 or self._tenant_cap is not None:
            registry.gauge("dram.tenant_utilization", **labels).set(
                self.effective_tenant_utilization
            )

    def reset(self) -> None:
        """Zero counters and close all row buffers; keep configuration."""
        self.bytes_transferred = 0
        self.accesses = 0
        self.row_hits = 0
        self._open_rows = [-1] * self.config.banks
        self._utilization = 0.0
        self._tenant_utilization = 0.0
        self._tenant_cap = None
