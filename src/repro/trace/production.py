"""Synthesis of Meta-like production traces.

:func:`make_trace` builds an :class:`~repro.trace.dataset.EmbeddingTrace`
for a workload shape (tables x rows x batches x lookups) and a dataset
name: the three production hotness groups (``high`` / ``medium`` / ``low``,
Zipf calibrated to the published 3% / 24% / 60% unique fractions) or the
synthetic extremes (``one-item`` / ``random``).

Per-table realism knobs mirror what the released ``dlrm_datasets`` show:

* hotness varies across tables (alpha jitter around the calibrated value),
* hot rows are scattered over the physical table (rank permutation),
* per-sample pooling factors vary around the mean (Poisson).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

import numpy as np

from ..config import PAPER_BATCH_SIZE, PAPER_NUM_BATCHES, SimConfig
from ..errors import ConfigError
from .dataset import EmbeddingTrace, TableBatch
from .hotness import HOTNESS_PROFILES, fit_zipf_alpha, zipf_probabilities
from .synthetic import one_item_indices, uniform_indices

__all__ = ["DATASET_NAMES", "make_trace", "make_production_trace", "make_zipf_trace"]

#: Valid dataset names, in the Fig 4 presentation order.
DATASET_NAMES = ("one-item", "high", "medium", "low", "random")

#: Bytes of offset and index arrays :func:`make_trace`'s in-process memo
#: holds; the least recently used traces are dropped past it, and a trace
#: larger than it is never kept.
TRACE_MEMO_BYTES = 64 << 20

_Batches = Tuple[Tuple[TableBatch, ...], ...]
_memo: "OrderedDict[tuple, Tuple[_Batches, int]]" = OrderedDict()
_memo_bytes = 0


def _offsets_for(
    batch_size: int,
    mean_lookups: int,
    rng: np.random.Generator,
    variable_pooling: bool,
) -> np.ndarray:
    if variable_pooling and mean_lookups > 1:
        pooling = rng.poisson(mean_lookups, size=batch_size)
        pooling = np.maximum(pooling, 1)
    else:
        pooling = np.full(batch_size, mean_lookups, dtype=np.int64)
    offsets = np.zeros(batch_size + 1, dtype=np.int64)
    np.cumsum(pooling, out=offsets[1:])
    return offsets


def _zipf_cdf(rows: int, alpha: float) -> np.ndarray:
    """The CDF ``Generator.choice(rows, p=zipf)`` builds on every call.

    Built once per table; :func:`_draw_ranks` then makes the same draws
    and leaves the generator in the same state as ``choice`` would.
    """
    cdf = zipf_probabilities(rows, alpha)
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    return cdf


def _draw_ranks(cdf: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Zipf ranks: ``choice``'s own inverse-CDF step."""
    return cdf.searchsorted(rng.random(count), side="right")


def _memo_store(key: tuple, batches: _Batches) -> None:
    """Keep ``batches`` under ``key``, dropping the oldest past the bound."""
    global _memo_bytes
    size = sum(tb.offsets.nbytes + tb.indices.nbytes for batch in batches for tb in batch)
    if size > TRACE_MEMO_BYTES:
        return
    _memo[key] = (batches, size)
    _memo_bytes += size
    while _memo_bytes > TRACE_MEMO_BYTES:
        _, (_, dropped) = _memo.popitem(last=False)
        _memo_bytes -= dropped


def make_trace(
    dataset: str,
    num_tables: int,
    rows_per_table: int,
    batch_size: int,
    num_batches: int,
    lookups_per_sample: int,
    config: Optional[SimConfig] = None,
    variable_pooling: bool = True,
    name: Optional[str] = None,
    calibration_samples: Optional[int] = None,
) -> EmbeddingTrace:
    """Build a complete trace for one workload and dataset.

    Parameters mirror the embedding-stage loop of Algorithm 1.

    The Zipf exponent for the hotness datasets is calibrated so the
    expected unique-access fraction at ``calibration_samples`` draws hits
    the paper's published target (3% / 24% / 60%).  The unique fraction is
    sample-size dependent, and the paper measures it over full production
    traces (batch 64, 120 batches), so by default calibration uses that
    *paper-scale* access count even when the generated trace is smaller —
    the skew is a property of the dataset, not of how much of it we
    sample.

    The trace is a pure function of the arguments and ``config.seed``, so
    it is memoized in the process (see :data:`TRACE_MEMO_BYTES`).  Each
    call returns a fresh :class:`EmbeddingTrace` (its own ``batches``
    lists and ``name``), but the :class:`TableBatch` arrays are shared
    between calls and read-only.
    """
    dataset = dataset.lower()
    if dataset not in DATASET_NAMES:
        raise ConfigError(f"unknown dataset {dataset!r}; expected one of {DATASET_NAMES}")
    if num_tables <= 0 or rows_per_table <= 0:
        raise ConfigError("table shape must be positive")
    if batch_size <= 0 or num_batches <= 0 or lookups_per_sample <= 0:
        raise ConfigError("workload shape must be positive")
    config = config or SimConfig()

    if calibration_samples is None:
        calibration_samples = PAPER_BATCH_SIZE * PAPER_NUM_BATCHES * lookups_per_sample
    if calibration_samples <= 0:
        raise ConfigError("calibration_samples must be positive")

    name = name or f"{dataset}-{num_tables}x{rows_per_table}"
    key = (
        dataset, num_tables, rows_per_table, batch_size, num_batches,
        lookups_per_sample, bool(variable_pooling), calibration_samples,
        config.seed,
    )
    hit = _memo.get(key)
    if hit is None:
        trace = _synthesize(
            dataset, num_tables, rows_per_table, batch_size, num_batches,
            lookups_per_sample, variable_pooling, calibration_samples,
            config.rng(f"trace:{dataset}:{num_tables}x{rows_per_table}"), name,
        )
        _memo_store(key, tuple(tuple(batch) for batch in trace.batches))
        return trace
    _memo.move_to_end(key)
    trace = EmbeddingTrace(rows_per_table=[rows_per_table] * num_tables, name=name)
    # The memoized batches were validated when they were first built.
    trace.batches.extend(list(batch) for batch in hit[0])
    return trace


def _synthesize(
    dataset: str,
    num_tables: int,
    rows_per_table: int,
    batch_size: int,
    num_batches: int,
    lookups_per_sample: int,
    variable_pooling: bool,
    calibration_samples: int,
    rng: np.random.Generator,
    name: str,
) -> EmbeddingTrace:
    """The body of :func:`make_trace`: a trace with read-only arrays."""
    base_alpha = 0.0
    if dataset in HOTNESS_PROFILES:
        profile = HOTNESS_PROFILES[dataset]
        base_alpha = fit_zipf_alpha(
            rows_per_table, calibration_samples, profile.unique_fraction
        )

    # Per-table popularity distributions and rank scatter, fixed for the
    # whole trace (a table's hot set does not change between batches —
    # that stability is what creates the inter-batch reuse of Fig 7).
    table_cdfs: List[Optional[np.ndarray]] = []
    table_perms: List[Optional[np.ndarray]] = []
    for t in range(num_tables):
        if dataset in HOTNESS_PROFILES:
            jitter = HOTNESS_PROFILES[dataset].table_jitter
            alpha_t = max(0.0, base_alpha * (1.0 + rng.uniform(-jitter, jitter)))
            table_cdfs.append(_zipf_cdf(rows_per_table, alpha_t))
            table_perms.append(rng.permutation(rows_per_table))
        else:
            table_cdfs.append(None)
            table_perms.append(None)

    trace = EmbeddingTrace(rows_per_table=[rows_per_table] * num_tables, name=name)
    for _ in range(num_batches):
        batch: List[TableBatch] = []
        for t in range(num_tables):
            offsets = _offsets_for(batch_size, lookups_per_sample, rng, variable_pooling)
            count = int(offsets[-1])
            if dataset == "one-item":
                indices = one_item_indices(rows_per_table, count)
            elif dataset == "random":
                indices = uniform_indices(rows_per_table, count, rng)
            else:
                cdf = table_cdfs[t]
                perm = table_perms[t]
                assert cdf is not None and perm is not None
                ranks = _draw_ranks(cdf, count, rng)
                indices = perm[ranks].astype(np.int64, copy=False)
            offsets.setflags(write=False)
            indices.setflags(write=False)
            batch.append(TableBatch(offsets=offsets, indices=indices))
        trace.append_batch(batch)
    return trace


def make_zipf_trace(
    target_unique_fraction: float,
    num_tables: int,
    rows_per_table: int,
    batch_size: int,
    num_batches: int,
    lookups_per_sample: int,
    config: Optional[SimConfig] = None,
    calibration_samples: Optional[int] = None,
    name: Optional[str] = None,
) -> EmbeddingTrace:
    """A trace at an *arbitrary* hotness, not just the three named groups.

    Calibrates a Zipf exponent so the expected unique-access fraction at
    ``calibration_samples`` (paper-scale by default) equals
    ``target_unique_fraction`` — the continuous axis between the paper's
    High (0.03) and Low (0.60) points.  Used by the hotness-sweep
    experiment.
    """
    if not 0.0 < target_unique_fraction <= 1.0:
        raise ConfigError("target unique fraction must be in (0, 1]")
    config = config or SimConfig()
    rng = config.rng(
        f"zipf:{target_unique_fraction}:{num_tables}x{rows_per_table}"
    )
    if calibration_samples is None:
        calibration_samples = PAPER_BATCH_SIZE * PAPER_NUM_BATCHES * lookups_per_sample
    alpha = fit_zipf_alpha(rows_per_table, calibration_samples, target_unique_fraction)
    trace = EmbeddingTrace(
        rows_per_table=[rows_per_table] * num_tables,
        name=name or f"zipf-u{target_unique_fraction:g}",
    )
    cdf = _zipf_cdf(rows_per_table, alpha)
    perms = [rng.permutation(rows_per_table) for _ in range(num_tables)]
    for _ in range(num_batches):
        batch: List[TableBatch] = []
        for t in range(num_tables):
            offsets = _offsets_for(batch_size, lookups_per_sample, rng, True)
            ranks = _draw_ranks(cdf, int(offsets[-1]), rng)
            indices = perms[t][ranks].astype(np.int64, copy=False)
            batch.append(TableBatch(offsets=offsets, indices=indices))
        trace.append_batch(batch)
    return trace


def make_production_trace(
    dataset: str,
    num_tables: int,
    rows_per_table: int,
    config: Optional[SimConfig] = None,
    lookups_per_sample: int = 120,
    num_batches: Optional[int] = None,
) -> EmbeddingTrace:
    """Convenience wrapper using the :class:`SimConfig` batch geometry."""
    config = config or SimConfig()
    return make_trace(
        dataset,
        num_tables=num_tables,
        rows_per_table=rows_per_table,
        batch_size=config.batch_size,
        num_batches=num_batches if num_batches is not None else config.num_batches,
        lookups_per_sample=lookups_per_sample,
        config=config,
    )
