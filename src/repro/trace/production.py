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
from functools import partial
from typing import Callable, List, Optional, Tuple

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

    Built once per table; :func:`_draw_ranks` (or drawing the uniforms
    first and mapping them in :func:`_scatter_table`) then makes the same
    draws and leaves the generator in the same state as ``choice`` would.
    """
    cdf = zipf_probabilities(rows, alpha)
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    return cdf


def _draw_ranks(cdf: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Zipf ranks: ``choice``'s own inverse-CDF step.

    Synthesis splits this in two: :func:`_draw_batches` draws the
    uniforms and :func:`_scatter_table` maps them through the CDF later.
    """
    return cdf.searchsorted(rng.random(count), side="right")


def _permutation(rows: int, rng: np.random.Generator) -> np.ndarray:
    """``rng.permutation(rows)``, narrowed to int32 where every row fits."""
    perm = rng.permutation(rows)
    return perm.astype(np.int32) if rows <= np.iinfo(np.int32).max else perm


def _check_shape(
    num_tables: int, rows_per_table: int, batch_size: int, num_batches: int,
    lookups_per_sample: int,
) -> None:
    if num_tables <= 0 or rows_per_table <= 0:
        raise ConfigError("table shape must be positive")
    if batch_size <= 0 or num_batches <= 0 or lookups_per_sample <= 0:
        raise ConfigError("workload shape must be positive")


def _calibration_samples(lookups_per_sample: int, calibration_samples: Optional[int]) -> int:
    """``calibration_samples``, defaulting to the paper-scale access count."""
    if calibration_samples is None:
        calibration_samples = PAPER_BATCH_SIZE * PAPER_NUM_BATCHES * lookups_per_sample
    if calibration_samples <= 0:
        raise ConfigError("calibration_samples must be positive")
    return calibration_samples


#: Per batch, per table: ``[offsets, indices]``, where a Zipf table's
#: indices are its uniforms until :func:`_scatter_table` maps them.
_Drawn = List[List[List[np.ndarray]]]


def _draw_batches(
    num_tables: int,
    batch_size: int,
    num_batches: int,
    lookups_per_sample: int,
    variable_pooling: bool,
    rng: np.random.Generator,
    draw: Callable[[int], np.ndarray],
) -> _Drawn:
    """Every (batch, table)'s offsets and then ``draw(count)``, in order."""
    drawn: _Drawn = []
    for _ in range(num_batches):
        batch = []
        for _ in range(num_tables):
            offsets = _offsets_for(batch_size, lookups_per_sample, rng, variable_pooling)
            batch.append([offsets, draw(int(offsets[-1]))])
        drawn.append(batch)
    return drawn


def _scatter_table(drawn: _Drawn, table: int, cdf: np.ndarray, perm: np.ndarray) -> None:
    """Map ``table``'s uniforms to rows: inverse CDF, then the rank scatter."""
    for batch in drawn:
        pair = batch[table]
        pair[1] = perm[cdf.searchsorted(pair[1], side="right")].astype(np.int64)


def _to_trace(drawn: _Drawn, num_tables: int, rows_per_table: int, name: str) -> EmbeddingTrace:
    """A trace over ``drawn``'s arrays, which are set read-only."""
    trace = EmbeddingTrace(rows_per_table=[rows_per_table] * num_tables, name=name)
    for batch in drawn:
        for offsets, indices in batch:
            offsets.setflags(write=False)
            indices.setflags(write=False)
        trace.append_batch([TableBatch(offsets=o, indices=i) for o, i in batch])
    return trace


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
    _check_shape(num_tables, rows_per_table, batch_size, num_batches, lookups_per_sample)
    config = config or SimConfig()
    calibration_samples = _calibration_samples(lookups_per_sample, calibration_samples)

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
    """The body of :func:`make_trace`: a trace with read-only arrays.

    Draws everything first, calling the generator exactly as drawing each
    (batch, table)'s ranks straight from its table's CDF would, then maps
    the uniforms one table at a time.  A CDF consumes no randomness, so
    only one is alive at a time, next to the int32 permutations: ~4 B per
    row per table, not 16.
    """
    # Per-table popularity distributions and rank scatter, fixed for the
    # whole trace (a table's hot set does not change between batches —
    # that stability is what creates the inter-batch reuse of Fig 7).
    alphas: List[float] = []
    perms: List[Optional[np.ndarray]] = []
    draw = rng.random
    if dataset in HOTNESS_PROFILES:
        profile = HOTNESS_PROFILES[dataset]
        base_alpha = fit_zipf_alpha(
            rows_per_table, calibration_samples, profile.unique_fraction
        )
        jitter = profile.table_jitter
        for _ in range(num_tables):
            alphas.append(max(0.0, base_alpha * (1.0 + rng.uniform(-jitter, jitter))))
            perms.append(_permutation(rows_per_table, rng))
    elif dataset == "one-item":
        draw = partial(one_item_indices, rows_per_table)
    else:
        draw = partial(uniform_indices, rows_per_table, rng=rng)

    drawn = _draw_batches(
        num_tables, batch_size, num_batches, lookups_per_sample, variable_pooling, rng, draw
    )
    for t, alpha in enumerate(alphas):
        _scatter_table(drawn, t, _zipf_cdf(rows_per_table, alpha), perms[t])
        perms[t] = None
    return _to_trace(drawn, num_tables, rows_per_table, name)


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
    experiment.  Every table shares one CDF; built as :func:`make_trace`
    builds its traces, with read-only arrays.
    """
    if not 0.0 < target_unique_fraction <= 1.0:
        raise ConfigError("target unique fraction must be in (0, 1]")
    _check_shape(num_tables, rows_per_table, batch_size, num_batches, lookups_per_sample)
    config = config or SimConfig()
    rng = config.rng(
        f"zipf:{target_unique_fraction}:{num_tables}x{rows_per_table}"
    )
    calibration_samples = _calibration_samples(lookups_per_sample, calibration_samples)
    alpha = fit_zipf_alpha(rows_per_table, calibration_samples, target_unique_fraction)
    perms = [_permutation(rows_per_table, rng) for _ in range(num_tables)]
    drawn = _draw_batches(
        num_tables, batch_size, num_batches, lookups_per_sample, True, rng, rng.random
    )
    cdf = _zipf_cdf(rows_per_table, alpha)
    for t, perm in enumerate(perms):
        _scatter_table(drawn, t, cdf, perm)
    return _to_trace(drawn, num_tables, rows_per_table, name or f"zipf-u{target_unique_fraction:g}")


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
