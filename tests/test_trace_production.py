"""Production trace synthesis tests."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.config import SimConfig
from repro.errors import ConfigError
from repro.trace import production
from repro.trace.hotness import (
    expected_unique_fraction,
    fit_zipf_alpha,
    zipf_probabilities,
)
from repro.trace.production import (
    DATASET_NAMES,
    make_production_trace,
    make_trace,
    make_zipf_trace,
)


def small_trace(dataset, **kwargs):
    defaults = dict(
        num_tables=3,
        rows_per_table=5000,
        batch_size=8,
        num_batches=2,
        lookups_per_sample=10,
        config=SimConfig(seed=5),
    )
    defaults.update(kwargs)
    return make_trace(dataset, **defaults)


def test_all_dataset_names_buildable():
    for dataset in DATASET_NAMES:
        trace = small_trace(dataset)
        assert trace.num_tables == 3
        assert trace.num_batches == 2


def test_unknown_dataset_rejected():
    with pytest.raises(ConfigError):
        small_trace("lukewarm")


def test_one_item_touches_single_row():
    trace = small_trace("one-item")
    for t in range(trace.num_tables):
        assert np.unique(trace.table_indices(t)).size == 1


def test_random_is_nearly_all_unique():
    # 160 draws from 5000 rows: collisions rare.
    trace = small_trace("random")
    assert trace.mean_unique_fraction() > 0.9


def test_hotness_ordering():
    fracs = {
        ds: small_trace(ds, calibration_samples=5000).mean_unique_fraction()
        for ds in ("high", "medium", "low")
    }
    assert fracs["high"] < fracs["medium"] < fracs["low"]


def test_calibration_at_matching_scale_hits_target():
    trace = make_trace(
        "medium",
        num_tables=2,
        rows_per_table=30_000,
        batch_size=32,
        num_batches=10,
        lookups_per_sample=50,
        config=SimConfig(seed=1),
        calibration_samples=32 * 10 * 50,
    )
    assert trace.mean_unique_fraction() == pytest.approx(0.24, abs=0.05)


def test_determinism_for_fixed_seed():
    a = small_trace("low")
    b = small_trace("low")
    assert np.array_equal(a.table_indices(0), b.table_indices(0))


def test_different_seeds_differ():
    a = small_trace("low", config=SimConfig(seed=1))
    b = small_trace("low", config=SimConfig(seed=2))
    assert not np.array_equal(a.table_indices(0), b.table_indices(0))


def test_variable_pooling_varies_lookups():
    trace = small_trace("low", variable_pooling=True, lookups_per_sample=10)
    pooling = trace.table_batch(0, 0).lookups_per_sample()
    assert pooling.min() >= 1
    assert len(set(pooling.tolist() + [10])) > 1  # not all exactly 10


def test_fixed_pooling_when_disabled():
    trace = small_trace("low", variable_pooling=False)
    pooling = trace.table_batch(0, 0).lookups_per_sample()
    assert np.all(pooling == 10)


def test_tables_have_distinct_hot_sets():
    trace = small_trace("high", calibration_samples=2000)
    hot0 = int(np.argmax(np.bincount(trace.table_indices(0))))
    hot1 = int(np.argmax(np.bincount(trace.table_indices(1))))
    # Rank permutations are per-table, so hottest physical rows differ.
    assert hot0 != hot1


def test_make_production_trace_uses_config_geometry():
    config = SimConfig(seed=2, batch_size=4, num_batches=3)
    trace = make_production_trace("low", 2, 1000, config=config, lookups_per_sample=5)
    assert trace.batch_size == 4
    assert trace.num_batches == 3


def test_invalid_shapes_rejected():
    with pytest.raises(ConfigError):
        small_trace("low", num_tables=0)
    with pytest.raises(ConfigError):
        small_trace("low", lookups_per_sample=0)
    with pytest.raises(ConfigError):
        small_trace("low", calibration_samples=0)


_ZIPF_SHAPE = dict(num_tables=2, rows_per_table=100, batch_size=4, num_batches=3,
                   lookups_per_sample=5)


@pytest.mark.parametrize("change,message", [
    (dict(num_tables=0), "table shape must be positive"),
    (dict(rows_per_table=0), "table shape must be positive"),
    (dict(batch_size=0), "workload shape must be positive"),
    (dict(num_batches=0), "workload shape must be positive"),
    (dict(lookups_per_sample=0), "workload shape must be positive"),
    (dict(calibration_samples=0), "calibration_samples must be positive"),
])
def test_make_zipf_trace_rejects_a_bad_shape_as_make_trace_does(change, message):
    args = dict(_ZIPF_SHAPE, **change)
    with pytest.raises(ConfigError, match=message):
        make_trace("low", **args)
    with pytest.raises(ConfigError, match=message):
        make_zipf_trace(0.3, **args)


def test_make_zipf_trace_arrays_are_read_only_int64():
    trace = make_zipf_trace(0.3, config=SimConfig(seed=3), **_ZIPF_SHAPE)
    for _, _, tb in trace.iter_table_batches():
        assert tb.indices.dtype == np.int64 and tb.offsets.dtype == np.int64
        assert not tb.indices.flags.writeable and not tb.offsets.flags.writeable


# -- golden traces ------------------------------------------------------------


def _digest(trace):
    """SHA-256 over every (batch, table)'s offsets and indices, dtypes included."""
    h = hashlib.sha256()
    for batch in trace.batches:
        for tb in batch:
            for a in (tb.offsets, tb.indices):
                h.update(a.dtype.str.encode())
                h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


_GOLDEN_SHAPES = {
    "small": dict(num_tables=3, rows_per_table=5000, batch_size=8, num_batches=2,
                  lookups_per_sample=10),
    "1m": dict(num_tables=2, rows_per_table=1_000_000, batch_size=4, num_batches=2,
               lookups_per_sample=20),
    # The benchmark's emb_* input: rm2_1 at scale 0.02, batch 16, one batch.
    "bench": dict(num_tables=8, rows_per_table=1_000_000, batch_size=16, num_batches=1,
                  lookups_per_sample=17),
}

#: Digests of the traces as first synthesized with ``rng.choice(p=...)`` per
#: (batch, table) and an out-of-place Zipf fit; any change to synthesis
#: that moves a single index shows here.
_GOLDEN_TRACES = {
    ("small", "one-item", 5): "2c2f7fcf65a01176873c0dadf8e838623231d2018765bf5017b37963970dbe41",
    ("small", "one-item", 11): "c683027e106bde1505086883868ede4abc733e34447d69dc7a1d0bf9eb0454ed",
    ("small", "high", 5): "5a036031b0e26b71135cbb067ed8537dba61e53d8d4cc9a5a5d46171246acf1a",
    ("small", "high", 11): "148558b554cf8f91c726c2fba17a8325480bc435cb883591a0ce694e6b4f359c",
    ("small", "medium", 5): "4066af91eb2e13a78eff4f52847cabc197fbf7ef5b743a0ab1dae4d53ace4cf1",
    ("small", "medium", 11): "9e10b2f7cbbf82b369f6f5590831a1f7e6938cae4c3d03b6b7c822693973079e",
    ("small", "low", 5): "100365a24087ca3e680b80d3259fb9745f49cfd70d1825241be1f1e5b642bf84",
    ("small", "low", 11): "85107e16b65cfa913dd504e44eb14847ba681e7c0cb41868265b3d441b6e71ab",
    ("small", "random", 5): "590e1247bafb05af789225eb12190f2a250df3ebc15a83f2a76d2f02f7cac17e",
    ("small", "random", 11): "84f83f26c3c247d17f3caf34d07f46e638ce5d5d60b32b9191f324fa9321a5d3",
    ("1m", "one-item", 5): "9d8df6a1391b41a71e647413e7a8c95524673f5f5600f3d984805c32bc1279e3",
    ("1m", "one-item", 11): "ec11836b90ec277154dfb6cb4656acfc3571fffa8191ea5bc2e026444ad0ca18",
    ("1m", "high", 5): "622c711c0dd5e76abfd0198c4bbe430ccf13815a7d79c1862046f7b308711a67",
    ("1m", "high", 11): "a8b47d23e290b68ee17b3ef195d57b52b64904a94158cd297dadef9163d231a9",
    ("1m", "medium", 5): "0e5719b5cba45f8fc801c9eeff64396f09b1d963f07493f3453ecfb161df3a2f",
    ("1m", "medium", 11): "dc4794a08f7857e1685bdb79ac674bc1fb76fbf0b0f1df6bae6b5c54db04d243",
    ("1m", "low", 5): "beb25803dd58186675a0a955b317c15a1364708733054bf64d31d7133406d2e0",
    ("1m", "low", 11): "0f25ce25fc0aca2ebc8a0cddda4a3fb10872778743a475e87f7f84b3e11f740c",
    ("1m", "random", 5): "b09d45fdf27ca54c55aa32584c3f50b7ca42ddd353370544893bf3803f4fe44b",
    ("1m", "random", 11): "4659833c705bab507d1f067d3264159704e63c4ce74a64a7f0cde9b8e295bf39",
    ("bench", "low", 1): "a2a485977405cd7da2761c392514128275434f4dbd99cbc0f614a9597455f992",
    ("bench", "high", 1): "506a8c35b57be74f29b8a3af4c859ed2378e93a173cb93892f26833667660906",
}

_GOLDEN_ZIPF = {
    (0.1, 5): "fe2828f11dd74ac156db6e48d337bd1ff5cc3a0a194ce4bc1be8c6f1ea2485b0",
    (0.1, 11): "fc831972d2b0f07595f8331ae40419042ff76e809265d157fdd66ea9000fe9ab",
    (0.45, 5): "68d4563f1741f333450a48eb7d7d235eba06cc86ae3c84cd063e4d4cd9201f03",
    (0.45, 11): "27f01544a4f6cbd7ff1983da42e3fac356dcb4acddc3129e0a0ec872b6320130",
}


@pytest.mark.parametrize("shape,dataset,seed", sorted(_GOLDEN_TRACES))
def test_make_trace_matches_golden_digest(shape, dataset, seed):
    trace = make_trace(dataset, config=SimConfig(seed=seed), **_GOLDEN_SHAPES[shape])
    assert _digest(trace) == _GOLDEN_TRACES[(shape, dataset, seed)]


@pytest.mark.parametrize("target,seed", sorted(_GOLDEN_ZIPF))
def test_make_zipf_trace_matches_golden_digest(target, seed):
    trace = make_zipf_trace(target, 3, 5000, 8, 2, 10, config=SimConfig(seed=seed))
    assert _digest(trace) == _GOLDEN_ZIPF[(target, seed)]


# -- synthesis memory -----------------------------------------------------------


def _traced(build):
    """Bytes traced while ``build()`` runs (numpy reports its buffers):
    ``(peak, still held once it has returned)``."""
    tracemalloc.start()
    try:
        build()
        held, peak = tracemalloc.get_traced_memory()
        return peak, held
    finally:
        tracemalloc.stop()


#: A row count no other test synthesizes at, so no per-row array a cache
#: may hold from an earlier test hides from the tracer.
_MEMORY_ROWS = 1_000_003


@pytest.mark.parametrize("build", [
    lambda: make_trace("low", 8, _MEMORY_ROWS, 16, 1, 17),
    lambda: make_zipf_trace(0.6, 8, _MEMORY_ROWS, 16, 1, 17),
], ids=["make_trace", "make_zipf_trace"])
def test_synthesis_memory_is_bounded(empty_memo, build):
    # int32 permutations for every table plus a few per-row float64
    # arrays (the fit's buffers, one CDF); holding every table's CDF and
    # int64 permutation at once read ~130 MB here.
    tables, rows = 8, _MEMORY_ROWS
    fit_zipf_alpha.cache_clear()  # the fit runs inside the traced window
    peak, held = _traced(build)
    assert peak <= tables * rows * 4 + 3 * rows * 8 + (4 << 20)
    # Once it returns, only the memoized trace (kilobytes at this shape)
    # stays: a cached 1..rows rank array held 8 MB here.
    assert held <= 1 << 20


# -- sampler and fit equivalence ----------------------------------------------


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0, 0.83])
def test_cdf_draw_equals_generator_choice(alpha):
    rows, count = 20_000, 3_000
    ours = np.random.default_rng(42)
    theirs = np.random.default_rng(42)
    cdf = production._zipf_cdf(rows, alpha)
    for _ in range(3):  # the CDF is reused across draws, as per table
        got = production._draw_ranks(cdf, count, ours)
        want = theirs.choice(rows, size=count, p=zipf_probabilities(rows, alpha))
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0, 0.83])
def test_in_place_fit_equals_plain_expression(alpha):
    rows, samples = 50_000, 130_560
    ranks = np.arange(1, rows + 1, dtype=np.float64)
    weights = ranks**-alpha
    p = weights / weights.sum()
    assert np.array_equal(zipf_probabilities(rows, alpha), p)
    log_miss = samples * np.log1p(-np.minimum(p, 1.0 - 1e-15))
    plain = float(np.sum(1.0 - np.exp(log_miss))) / samples
    assert expected_unique_fraction(rows, samples, alpha) == plain


def test_zipf_probabilities_are_fresh_writable_arrays():
    a = zipf_probabilities(100, 1.0)
    b = zipf_probabilities(100, 1.0)
    assert a is not b and a.flags.writeable
    a[:] = 0.0
    assert b.sum() == pytest.approx(1.0)


# -- the in-process trace memo --------------------------------------------------


_MEMO_SHAPE = dict(num_tables=2, rows_per_table=3000, batch_size=4, num_batches=2,
                   lookups_per_sample=6, config=SimConfig(seed=123))


@pytest.fixture
def empty_memo(monkeypatch):
    monkeypatch.setattr(production, "_memo", type(production._memo)())
    monkeypatch.setattr(production, "_memo_bytes", 0)


def _shared(a, b):
    return a.batches[0][0] is b.batches[0][0]


def test_memo_returns_distinct_equal_traces(empty_memo):
    a = make_trace("medium", **_MEMO_SHAPE)
    b = make_trace("medium", **_MEMO_SHAPE)
    assert a is not b and a.batches is not b.batches
    assert a.batches[0] is not b.batches[0]
    assert _shared(a, b)
    assert _digest(a) == _digest(b)


def test_memo_arrays_are_read_only(empty_memo):
    for trace in (make_trace("high", **_MEMO_SHAPE), make_trace("high", **_MEMO_SHAPE)):
        tb = trace.table_batch(0, 0)
        with pytest.raises(ValueError):
            tb.indices[0] = 1
        with pytest.raises(ValueError):
            tb.offsets[-1] = 0


def test_memo_append_batch_leaves_other_trace_alone(empty_memo):
    a = make_trace("low", **_MEMO_SHAPE)
    b = make_trace("low", **_MEMO_SHAPE)
    a.append_batch(list(a.batches[0]))
    a.batches[0][1] = a.batches[1][1]
    assert a.num_batches == 3 and b.num_batches == 2
    assert b.batches[0][1] is not b.batches[1][1]
    c = make_trace("low", **_MEMO_SHAPE)
    assert c.num_batches == 2 and _digest(c) == _digest(b)


@pytest.mark.parametrize("change", [
    dict(dataset="low"),
    dict(num_tables=3),
    dict(rows_per_table=3001),
    dict(batch_size=5),
    dict(num_batches=3),
    dict(lookups_per_sample=7),
    dict(variable_pooling=False),
    dict(calibration_samples=999),
    dict(config=SimConfig(seed=124)),
])
def test_memo_misses_on_any_changed_argument(empty_memo, change):
    base = make_trace("medium", **_MEMO_SHAPE)
    args = dict(_MEMO_SHAPE, dataset="medium")
    args.update(change)
    other = make_trace(**args)
    assert not _shared(base, other)
    assert _shared(base, make_trace("medium", **_MEMO_SHAPE))


def test_memo_name_is_per_call(empty_memo):
    a = make_trace("high", **_MEMO_SHAPE)
    b = make_trace("high", name="renamed", **_MEMO_SHAPE)
    assert _shared(a, b)
    assert a.name == "high-2x3000" and b.name == "renamed"


def test_memo_does_not_keep_a_trace_over_the_bound(empty_memo, monkeypatch):
    monkeypatch.setattr(production, "TRACE_MEMO_BYTES", 64)
    a = make_trace("medium", **_MEMO_SHAPE)
    b = make_trace("medium", **_MEMO_SHAPE)
    assert not _shared(a, b) and _digest(a) == _digest(b)
    assert len(production._memo) == 0 and production._memo_bytes == 0


def test_memo_drops_least_recently_used_past_the_bound(empty_memo, monkeypatch):
    fixed = dict(_MEMO_SHAPE, variable_pooling=False)  # equal-sized traces
    one = make_trace("low", **fixed)
    size = production._memo_bytes
    monkeypatch.setattr(production, "TRACE_MEMO_BYTES", 2 * size)
    make_trace("high", **fixed)
    assert _shared(one, make_trace("low", **fixed))  # low is now newest
    make_trace("medium", **fixed)  # evicts high, keeps low
    assert production._memo_bytes == 2 * size
    assert _shared(one, make_trace("low", **fixed))
    assert [key[0] for key in production._memo] == ["medium", "low"]
