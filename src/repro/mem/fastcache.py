"""Array-backed set-associative LRU cache — the package's one cache level.

:class:`FastCache` is designed so the trace-driven hot path (the embedding
hierarchy walk) can be vectorized.  State lives in flat numpy planes
instead of one Python replacement-policy object per set (the reference
``Cache`` that ``tests/embedding_oracle.py`` keeps as its oracle):

``_tags``
    ``num_sets × ways`` int64 matrix of resident tags (-1 = empty way).
``_stamp``
    ``num_sets × ways`` int64 matrix of last-touch ticks from a global
    monotone counter; the LRU victim of a set is the way with the smallest
    stamp.  This reproduces the reference per-set LRU list exactly: both
    order a set's ways by last touch (lookup hit or insert).
``_pending``
    ``num_sets × ways`` boolean plane marking lines filled by prefetch and
    not yet demanded (the reference keeps a ``line -> True`` dict; a
    resident-slot plane is equivalent because pending lines are always
    resident).
``_where``
    A ``line -> way`` dict sidecar.  Batch calls keep the way values
    exact; scalar calls use it purely as an O(1) membership probe (way
    values are reassigned when the scalar row table is written back).

Scalar calls are stat-for-stat and eviction-for-eviction equivalent to
the oracle's ``Cache(policy="lru")`` (enforced by the differential tests in
``tests/test_mem_fastcache.py``).  The batch calls (`lookup_batch`,
`fill_batch`) require the caller to guarantee that no two lines of a batch
map to the same set — :meth:`repro.mem.hierarchy.MemoryHierarchy.access_lines`
splits streams into conflict-free runs before calling them.

Scalar calls work on a second, list-based form of the same state instead
of the planes: ``_rows``, a per-set table of LRU-first lists of resident
*line numbers* (not tags), with the empty tuple standing for a set never
filled, plus ``_pend_lines``, the reference's ``line -> True`` pending
dict.  Lines convert to tags and ways only at the array boundary
(:meth:`_row_table` and :meth:`_flush_rows`).

The fused embedding kernel (:func:`repro.engine.embedding_exec._fused_walk`)
inlines the scalar ``access``/``fill`` and works on ``_where``, the row
table and ``_pend_lines`` directly; a change to the scalar path must be
made there too (``tests/test_engine_fastpath.py`` diffs the kernel
against the oracle).
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import ConfigError
from ..units import CACHE_LINE_BYTES
from .stats import CacheStats

__all__ = ["FastCache"]


class FastCache:
    """Array-backed set-associative LRU cache level."""

    def __init__(self, name: str, size_bytes: int, ways: int) -> None:
        if size_bytes <= 0:
            raise ConfigError(f"cache size must be positive, got {size_bytes}")
        lines = size_bytes // CACHE_LINE_BYTES
        if lines % ways:
            raise ConfigError(
                f"{name}: {size_bytes} bytes is not divisible into {ways}-way sets"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.num_sets = lines // ways
        self.stats = CacheStats()
        self._tags = np.full((self.num_sets, ways), -1, dtype=np.int64)
        self._stamp = np.zeros((self.num_sets, ways), dtype=np.int64)
        self._pending = np.zeros((self.num_sets, ways), dtype=bool)
        self._where: Dict[int, int] = {}
        self._tick = 0
        # Sticky "a prefetch fill ever happened" flag; while False the
        # batch paths skip all pending-plane reads (demand-only runs never
        # pay for prefetch bookkeeping).
        self._has_pending = False
        # Scalar-path row table: set index -> LRU-first list of resident
        # line numbers, the reference LRUPolicy's layout keyed by line
        # instead of tag, so scalar recency updates are the same C list
        # operations (``remove``/``append``) the reference pays and a fill
        # or eviction needs no tag arithmetic.  A set never filled holds
        # the shared empty tuple until its first fill gives it a list.
        # None while the numpy planes hold the state; the first scalar
        # call builds the whole table (:meth:`_row_table`), and the next
        # batch call writes it back and drops it (:meth:`_flush_rows`).
        # A hierarchy instance in practice runs either all-scalar or
        # all-batch, so each conversion happens at most once per run.
        self._rows: Optional[List[Sequence[int]]] = None
        # Pending prefetched lines of the scalar form (the reference's
        # ``line -> True`` dict); empty while the planes hold the state.
        self._pend_lines: Dict[int, bool] = {}
        # True while no batch call has ever written the planes: the row
        # table then starts empty without reading them.  Scalar-only runs
        # never pay for the planes.
        self._planes_empty = True

    # -- geometry ---------------------------------------------------------

    @property
    def capacity_lines(self) -> int:
        """Total number of lines the cache can hold."""
        return self.num_sets * self.ways

    def set_index(self, line: int) -> int:
        """Set that line ``line`` maps to."""
        return line % self.num_sets

    def tag_of(self, line: int) -> int:
        """Tag of line ``line`` within its set."""
        return line // self.num_sets

    # -- scalar accesses ---------------------------------------------------

    def _row_table(self) -> List[Sequence[int]]:
        """The scalar row table, built from the planes on first use.

        Each set's resident lines in LRU-first order (ways sorted by
        last-touch stamp; empty ways, stamp 0, sort first and are cut), and
        the pending bits move into the line-keyed ``_pend_lines`` dict.
        """
        rows = self._rows
        if rows is not None:
            return rows
        ns = self.num_sets
        if self._planes_empty:
            rows = [()] * ns
        else:
            ways = self.ways
            by_age = np.argsort(self._stamp, axis=1)
            lines = np.take_along_axis(self._tags, by_age, axis=1) * ns
            lines += np.arange(ns, dtype=np.int64)[:, None]
            cut = (ways - np.count_nonzero(self._tags != -1, axis=1)).tolist()
            rows = [row[k:] for row, k in zip(lines.tolist(), cut)]
            if self._has_pending:
                ps, pw = np.nonzero(self._pending)
                self._pend_lines.update(
                    dict.fromkeys((self._tags[ps, pw] * ns + ps).tolist(), True)
                )
        self._rows = rows
        return rows

    def _flush_rows(self) -> None:
        """Write the scalar row table back into the numpy planes.

        Way positions within a set are internal state: batch behavior
        depends only on membership, per-set recency order, and per-line
        pending flags.  Residents are therefore laid back at their row
        position with stamps ``1..k``; the tick counter is bumped to at
        least ``ways`` so every future stamp stays newer.
        """
        rows = self._rows
        if rows is None:
            return
        ns = self.num_sets
        counts = np.fromiter(map(len, rows), np.int64, ns)
        n = int(counts.sum())
        flat = np.fromiter(chain.from_iterable(rows), np.int64, n)
        sets = np.repeat(np.arange(ns, dtype=np.int64), counts)
        starts = np.cumsum(counts) - counts
        pos = np.arange(n, dtype=np.int64) - np.repeat(starts, counts)
        self._tags.fill(-1)
        self._tags[sets, pos] = flat // ns
        self._stamp.fill(0)
        self._stamp[sets, pos] = pos + 1
        if self._has_pending:
            self._pending.fill(False)
            pend_lines = self._pend_lines
            if pend_lines:
                pend = np.isin(flat, list(pend_lines))
                self._pending[sets[pend], pos[pend]] = True
        self._where.update(zip(flat.tolist(), pos.tolist()))
        if self._tick < self.ways:
            self._tick = self.ways
        self._rows = None
        self._pend_lines.clear()

    def access(self, line: int, is_prefetch: bool = False) -> bool:
        """Look up ``line``; return True on hit.

        A hit updates recency; a miss does **not** fill — the hierarchy
        fills explicitly once the data has come from below.
        """
        stats = self.stats
        if line not in self._where:
            if not is_prefetch:
                stats.demand_misses += 1
            return False
        rows = self._rows
        if rows is None:
            rows = self._row_table()
        order = rows[line % self.num_sets]
        order.remove(line)
        order.append(line)
        if is_prefetch:
            stats.prefetch_hits += 1
        else:
            stats.demand_hits += 1
            if self._has_pending and self._pend_lines.pop(line, None):
                stats.prefetch_useful += 1
        return True

    def contains(self, line: int) -> bool:
        """Residency probe without recency or stats side effects."""
        return line in self._where

    def fill(self, line: int, from_prefetch: bool = False) -> Optional[int]:
        """Install ``line``; return the evicted line number, if any."""
        rows = self._rows
        if rows is None:
            rows = self._row_table()
        order = rows[s := line % self.num_sets]
        where = self._where
        evicted_line: Optional[int] = None
        if line in where:
            order.remove(line)
            order.append(line)
        else:
            if len(order) >= self.ways:
                evicted_line = order.pop(0)
                del where[evicted_line]
                self.stats.evictions += 1
                if self._has_pending and self._pend_lines.pop(evicted_line, None):
                    self.stats.prefetch_evicted_unused += 1
            elif not order:
                order = rows[s] = []
            order.append(line)
            # Way assignment is deferred to _flush_rows; scalar calls only
            # ever use _where as a membership test.
            where[line] = -1
        if from_prefetch:
            self.stats.prefetch_fills += 1
            self._pend_lines[line] = True
            self._has_pending = True
        return evicted_line

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` if resident; return whether it was resident."""
        if line not in self._where:
            return False
        rows = self._rows
        if rows is None:
            rows = self._row_table()
        del self._where[line]
        rows[line % self.num_sets].remove(line)
        if self._has_pending:
            self._pend_lines.pop(line, None)
        return True

    # -- batch accesses ----------------------------------------------------
    #
    # Precondition for both: the lines of one batch map to pairwise-distinct
    # sets.  Under that precondition the batch is exactly equivalent to the
    # scalar calls applied in index order (per-set event order — the only
    # thing LRU state depends on — is preserved, because each set is touched
    # at most once per batch).

    def lookup_batch(self, lines: np.ndarray, is_prefetch: bool = False) -> np.ndarray:
        """Vectorized ``access`` over conflict-free ``lines``; returns hits."""
        self._flush_rows()
        self._planes_empty = False
        n = lines.size
        s = lines % self.num_sets
        match = self._tags[s] == (lines // self.num_sets)[:, None]
        hit = match.any(axis=1)
        hs = s[hit]
        k = hs.size
        stats = self.stats
        if k:
            hw = match[hit].argmax(axis=1)
            self._stamp[hs, hw] = np.arange(
                self._tick + 1, self._tick + 1 + k, dtype=np.int64
            )
            self._tick += k
            if is_prefetch:
                stats.prefetch_hits += k
            else:
                stats.demand_hits += k
                if self._has_pending:
                    pend = self._pending[hs, hw]
                    n_useful = int(np.count_nonzero(pend))
                    if n_useful:
                        stats.prefetch_useful += n_useful
                        self._pending[hs[pend], hw[pend]] = False
        if not is_prefetch:
            stats.demand_misses += n - k
        return hit

    def demand_wave(self, lines: np.ndarray) -> np.ndarray:
        """Fused demand lookup + miss fill for one conflict-free wave.

        Equivalent to, for each line in order: ``access(line)`` followed by
        ``fill(line)`` when the access missed — the per-line sequence the
        hierarchy's demand walk performs at every level.  Fusing the two
        halves the numpy dispatch count on the hot path.  Returns the hit
        mask.
        """
        self._flush_rows()
        self._planes_empty = False
        ns = self.num_sets
        n = lines.size
        t, s = np.divmod(lines, ns)
        rows = self._tags[s]
        match = rows == t[:, None]
        way = match.argmax(axis=1)
        hit = match.any(axis=1)
        stats = self.stats
        nhit = int(np.count_nonzero(hit))
        stats.demand_hits += nhit
        stats.demand_misses += n - nhit
        pending = self._has_pending
        if nhit and pending:
            hs, hw = s[hit], way[hit]
            pend = self._pending[hs, hw]
            n_useful = int(np.count_nonzero(pend))
            if n_useful:
                stats.prefetch_useful += n_useful
                self._pending[hs[pend], hw[pend]] = False
        if nhit < n:
            miss = ~hit
            ms, mt = s[miss], t[miss]
            freemask = rows[miss] == -1
            has_free = freemask.any(axis=1)
            fway = np.where(
                has_free, freemask.argmax(axis=1), self._stamp[ms].argmin(axis=1)
            )
            way[miss] = fway
            full = ~has_free
            n_evict = int(np.count_nonzero(full))
            where = self._where
            if n_evict:
                vs, vw = ms[full], fway[full]
                stats.evictions += n_evict
                if pending:
                    ev_pend = self._pending[vs, vw]
                    n_unused = int(np.count_nonzero(ev_pend))
                    if n_unused:
                        stats.prefetch_evicted_unused += n_unused
                for ev in (self._tags[vs, vw] * ns + vs).tolist():
                    del where[ev]
            self._tags[ms, fway] = mt
            if pending:
                self._pending[ms, fway] = False
            for ln, w in zip(lines[miss].tolist(), fway.tolist()):
                where[ln] = w
        self._stamp[s, way] = np.arange(
            self._tick + 1, self._tick + 1 + n, dtype=np.int64
        )
        self._tick += n
        return hit

    def fill_batch(self, lines: np.ndarray, from_prefetch: bool = False) -> None:
        """Vectorized ``fill`` over conflict-free ``lines``.

        Unlike scalar :meth:`fill`, evicted line numbers are not returned
        (no caller of the hierarchy walk consumes them); eviction statistics
        are recorded identically.
        """
        self._flush_rows()
        self._planes_empty = False
        n = lines.size
        if not n:
            return
        s = lines % self.num_sets
        tags = lines // self.num_sets
        rows = self._tags[s]
        match = rows == tags[:, None]
        resident = match.any(axis=1)
        ways = match.argmax(axis=1)
        new_idx = np.nonzero(~resident)[0]
        if new_idx.size:
            nrows = rows[new_idx]
            freemask = nrows == -1
            has_free = freemask.any(axis=1)
            ways[new_idx[has_free]] = freemask[has_free].argmax(axis=1)
            vict_idx = new_idx[~has_free]
            if vict_idx.size:
                vs = s[vict_idx]
                vw = self._stamp[vs].argmin(axis=1)
                ways[vict_idx] = vw
                ev_lines = self._tags[vs, vw] * self.num_sets + vs
                self.stats.evictions += vict_idx.size
                if self._has_pending:
                    self.stats.prefetch_evicted_unused += int(
                        np.count_nonzero(self._pending[vs, vw])
                    )
                for ev in ev_lines.tolist():
                    del self._where[ev]
            ns, nw = s[new_idx], ways[new_idx]
            self._tags[ns, nw] = tags[new_idx]
            if self._has_pending:
                self._pending[ns, nw] = False
            for ln, w in zip(lines[new_idx].tolist(), ways[new_idx].tolist()):
                self._where[ln] = w
        self._stamp[s, ways] = np.arange(
            self._tick + 1, self._tick + 1 + n, dtype=np.int64
        )
        self._tick += n
        if from_prefetch:
            self.stats.prefetch_fills += n
            self._pending[s, ways] = True
            self._has_pending = True

    # -- maintenance ------------------------------------------------------

    def flush(self) -> None:
        """Empty the cache, keeping statistics."""
        self._rows = None
        self._pend_lines.clear()
        self._tags.fill(-1)
        self._stamp.fill(0)
        self._pending.fill(False)
        self._where.clear()
        self._tick = 0
        self._has_pending = False
        self._planes_empty = True

    def reset_stats(self) -> None:
        """Zero statistics, keeping contents (for warmup/measure splits)."""
        self.stats.reset()

    def publish_metrics(self, registry, **labels: str) -> None:
        """Accumulate this level's counters into an obs metrics registry."""
        self.stats.publish(registry, cache=self.name, **labels)

    def occupancy(self) -> int:
        """Number of currently resident lines."""
        return len(self._where)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FastCache({self.name}, {self.size_bytes}B, {self.ways}-way, "
            f"{self.num_sets} sets, lru)"
        )
