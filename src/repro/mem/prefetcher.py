"""Hardware prefetcher models.

Intel cores carry four prefetchers — two at L1D (next-line "DCU", IP-stride)
and two at L2 (streamer, adjacent-line) [Intel SDM].  The paper's Section 4.1
observes that these help the regular MLP stages but are nearly useless (or
mildly harmful through pollution and bandwidth waste) for the irregular,
data-dependent embedding lookups.  The models here let the simulator
reproduce that: each prefetcher observes the demand stream of its level and
proposes candidate lines, which the hierarchy fetches and fills.

The interface is deliberately narrow::

    candidates = prefetcher.observe(line, hit)

returning the lines to prefetch (possibly empty).

The fused embedding kernel (:func:`repro.engine.embedding_exec._fused_walk`)
inlines the next-line, streamer and stride ``observe`` for the hierarchy's
fixed complement; a change to them must be made there too
(``tests/test_engine_fastpath.py`` diffs the two).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import ConfigError
from .cacheline import page_of_line

__all__ = [
    "NullPrefetcher",
    "NextLinePrefetcher",
    "StridePrefetcher",
    "StreamerPrefetcher",
    "CompositePrefetcher",
]


class NullPrefetcher:
    """Prefetching disabled (the paper's "w/o HW-PF" design point)."""

    def observe(self, line: int, hit: bool) -> List[int]:
        return []

    def reset(self) -> None:
        """Nothing to reset."""


class NextLinePrefetcher:
    """Fetch the ``degree`` lines following every demand miss.

    Models the DCU next-line / L2 adjacent-line prefetchers.  For streaming
    MLP weight reads this is nearly perfect; for embedding rows it usefully
    covers the 8 sequential lines of one row but then overshoots into the
    next (unrelated) row.
    """

    def __init__(self, degree: int = 1) -> None:
        if degree <= 0:
            raise ConfigError(f"degree must be positive, got {degree}")
        self.degree = degree
        self.issued = 0

    def observe(self, line: int, hit: bool) -> List[int]:
        if hit:
            return []
        self.issued += self.degree
        return [line + d for d in range(1, self.degree + 1)]

    def reset(self) -> None:
        self.issued = 0


class StridePrefetcher:
    """Classic per-stream stride detector (IP-stride analogue).

    We have no program counters in a trace-driven simulator, so streams are
    keyed by a caller-supplied stream id via :meth:`observe_stream`; plain
    :meth:`observe` uses a single anonymous stream.  A stride must repeat
    ``confidence_threshold`` times before prefetches launch ``degree``
    strides ahead.
    """

    def __init__(self, degree: int = 2, confidence_threshold: int = 2) -> None:
        if degree <= 0:
            raise ConfigError(f"degree must be positive, got {degree}")
        if confidence_threshold <= 0:
            raise ConfigError("confidence threshold must be positive")
        self.degree = degree
        self.confidence_threshold = confidence_threshold
        # stream id -> (last line, last stride, confidence)
        self._streams: Dict[int, Tuple[int, int, int]] = {}
        self.issued = 0

    def observe(self, line: int, hit: bool) -> List[int]:
        return self.observe_stream(0, line, hit)

    def observe_stream(self, stream: int, line: int, hit: bool) -> List[int]:
        last, stride, confidence = self._streams.get(stream, (line, 0, 0))
        new_stride = line - last
        if new_stride == stride and new_stride != 0:
            confidence = min(confidence + 1, self.confidence_threshold)
        else:
            stride = new_stride
            confidence = 1 if new_stride != 0 else 0
        self._streams[stream] = (line, stride, confidence)
        if confidence >= self.confidence_threshold and stride != 0:
            self.issued += self.degree
            return [line + stride * d for d in range(1, self.degree + 1)]
        return []

    def reset(self) -> None:
        self._streams.clear()
        self.issued = 0


class StreamerPrefetcher:
    """L2 streamer: detects ascending/descending runs within a 4 KiB page.

    Tracks the last few accessed lines per page; two successive accesses in
    the same direction within a page trigger a run of ``degree`` prefetches
    in that direction, stopping at the page boundary (real streamers do not
    cross pages).
    """

    LINES_PER_PAGE = 64  # 4096 / 64
    #: Pages tracked before the stream table is reset.
    TABLE_ENTRIES = 4096

    def __init__(self, degree: int = 4) -> None:
        if degree <= 0:
            raise ConfigError(f"degree must be positive, got {degree}")
        self.degree = degree
        self._last_in_page: Dict[int, int] = {}
        self.issued = 0

    def observe(self, line: int, hit: bool) -> List[int]:
        page = page_of_line(line)
        last = self._last_in_page.get(page)
        self._last_in_page[page] = line
        if last is None:
            return []
        direction = 1 if line > last else -1 if line < last else 0
        if direction == 0:
            return []
        page_first = page * self.LINES_PER_PAGE
        page_last = page_first + self.LINES_PER_PAGE - 1
        candidates = []
        for d in range(1, self.degree + 1):
            target = line + direction * d
            if page_first <= target <= page_last:
                candidates.append(target)
        self.issued += len(candidates)
        if len(self._last_in_page) > self.TABLE_ENTRIES:
            # Bound tracker memory like a real finite stream table.
            self._last_in_page.clear()
            self._last_in_page[page] = line
        return candidates

    def reset(self) -> None:
        self._last_in_page.clear()
        self.issued = 0


class CompositePrefetcher:
    """Union of several prefetchers observing the same stream."""

    def __init__(self, *prefetchers: object) -> None:
        self.prefetchers = list(prefetchers)

    def observe(self, line: int, hit: bool) -> List[int]:
        candidates: List[int] = []
        seen = set()
        for pf in self.prefetchers:
            for c in pf.observe(line, hit):  # type: ignore[attr-defined]
                if c not in seen:
                    seen.add(c)
                    candidates.append(c)
        return candidates

    def reset(self) -> None:
        for pf in self.prefetchers:
            pf.reset()  # type: ignore[attr-defined]
