"""AddressMap tests."""

import numpy as np
import pytest

from repro.errors import ConfigError, TraceError
from repro.trace.dataset import TableBatch
from repro.trace.stream import TABLE_ALIGN_BYTES, AddressMap
from repro.units import CACHE_LINE_BYTES


@pytest.fixture
def amap():
    return AddressMap([1000, 2000], embedding_dim=128)


def test_row_bytes_and_lines(amap):
    assert amap.row_bytes == 512
    assert amap.row_lines == 8


def test_tables_are_aligned_and_disjoint(amap):
    for base in amap.table_bases:
        assert base % TABLE_ALIGN_BYTES == 0
    end_t0 = amap.table_bases[0] + 1000 * amap.row_bytes
    assert amap.table_bases[1] >= end_t0


def test_row_address_arithmetic(amap):
    assert amap.row_address(0, 0) == amap.table_bases[0]
    assert amap.row_address(0, 5) == amap.table_bases[0] + 5 * 512


def test_row_bounds_checked(amap):
    with pytest.raises(TraceError):
        amap.row_address(0, 1000)
    with pytest.raises(TraceError):
        amap.row_address(2, 0)


def test_row_line_run_covers_full_row(amap):
    run = amap.row_line_run(1, 7)
    assert len(run) == 8
    first_byte = amap.row_address(1, 7)
    assert run[0] == first_byte // CACHE_LINE_BYTES


def test_adjacent_rows_have_adjacent_lines(amap):
    run_a = amap.row_line_run(0, 0)
    run_b = amap.row_line_run(0, 1)
    assert run_b[0] == run_a[-1] + 1


def test_batch_first_lines_vectorized(amap):
    tb = TableBatch(np.array([0, 3]), np.array([0, 5, 999]))
    lines = amap.batch_first_lines(0, tb)
    expected = [amap.row_first_line(0, r) for r in (0, 5, 999)]
    assert list(lines) == expected


def test_batch_first_lines_validates_range(amap):
    tb = TableBatch(np.array([0, 1]), np.array([5000]))
    with pytest.raises(TraceError):
        amap.batch_first_lines(0, tb)


def test_row_id_of_line_round_trip(amap):
    line = amap.row_first_line(1, 123)
    assert amap.row_id_of_line(line) == (1, 123)
    assert amap.row_id_of_line(0) is None  # below table 0's base


def test_total_bytes(amap):
    assert amap.total_bytes >= (1000 + 2000) * 512


def test_dim64_uses_four_lines():
    amap = AddressMap([10], embedding_dim=64)
    assert amap.row_lines == 4  # RM1's geometry


def test_unaligned_row_sizes_supported():
    # dim=20 -> 80 bytes -> rows straddle cache lines.
    amap = AddressMap([100], embedding_dim=20)
    assert amap.row_bytes == 80
    assert amap.row_lines == 2
    assert len(amap.row_line_run(0, 3)) in (2, 3)


def test_validation():
    with pytest.raises(ConfigError):
        AddressMap([], 128)
    with pytest.raises(ConfigError):
        AddressMap([10], 0)
    with pytest.raises(ConfigError):
        AddressMap([0], 128)
    # Line numbers are non-negative; the embedding kernel relies on it.
    with pytest.raises(ConfigError):
        AddressMap([10], 128, base_address=-4096)
