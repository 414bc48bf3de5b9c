"""Table address maps and cache-line streams.

The cache simulator works on byte addresses.  :class:`AddressMap` lays the
embedding tables out in a flat address space — contiguous rows, tables
page-aligned and separated — exactly like a resident model in DRAM, and
converts (table, row) pairs into cache-line runs.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..errors import ConfigError, TraceError
from ..units import CACHE_LINE_BYTES, FLOAT32_BYTES
from .dataset import TableBatch

__all__ = ["AddressMap"]

#: Tables start on a 2 MiB boundary (huge-page alignment, like IPEX).
TABLE_ALIGN_BYTES = 2 * 1024 * 1024


class AddressMap:
    """Physical layout of a model's embedding tables.

    Parameters
    ----------
    rows_per_table:
        Row count of each table.
    embedding_dim:
        Elements per row (uniform across tables, as in Table 2 models).
    dtype_bytes:
        Element width; fp32 throughout the paper.
    base_address:
        Where table 0 starts.  Non-zero bases let several structures
        (e.g. MLP weights) coexist in one simulated address space.
    """

    def __init__(
        self,
        rows_per_table: Sequence[int],
        embedding_dim: int,
        dtype_bytes: int = FLOAT32_BYTES,
        base_address: int = TABLE_ALIGN_BYTES,
    ) -> None:
        if embedding_dim <= 0:
            raise ConfigError(f"embedding_dim must be positive, got {embedding_dim}")
        if dtype_bytes <= 0:
            raise ConfigError(f"dtype_bytes must be positive, got {dtype_bytes}")
        if not rows_per_table:
            raise ConfigError("need at least one table")
        if base_address < 0:
            raise ConfigError(f"base_address must be non-negative, got {base_address}")
        self.embedding_dim = embedding_dim
        self.dtype_bytes = dtype_bytes
        self.row_bytes = embedding_dim * dtype_bytes
        self.rows_per_table = list(rows_per_table)
        self.table_bases: List[int] = []
        cursor = base_address
        for rows in self.rows_per_table:
            if rows <= 0:
                raise ConfigError("row counts must be positive")
            cursor = -(-cursor // TABLE_ALIGN_BYTES) * TABLE_ALIGN_BYTES
            self.table_bases.append(cursor)
            cursor += rows * self.row_bytes

    @property
    def num_tables(self) -> int:
        """Number of tables laid out."""
        return len(self.rows_per_table)

    @property
    def row_lines(self) -> int:
        """Cache lines per embedding row (8 for dim=128 fp32)."""
        return -(-self.row_bytes // CACHE_LINE_BYTES)

    @property
    def total_bytes(self) -> int:
        """Footprint from table 0's base through the last row."""
        last = self.num_tables - 1
        end = self.table_bases[last] + self.rows_per_table[last] * self.row_bytes
        return end - self.table_bases[0]

    # -- address math ----------------------------------------------------------

    def row_address(self, table: int, row: int) -> int:
        """Byte address of ``table[row][0]``."""
        if not 0 <= table < self.num_tables:
            raise TraceError(f"table {table} out of range")
        if not 0 <= row < self.rows_per_table[table]:
            raise TraceError(f"row {row} outside table {table}")
        return self.table_bases[table] + row * self.row_bytes

    def row_first_line(self, table: int, row: int) -> int:
        """First cache line of a row."""
        return self.row_address(table, row) // CACHE_LINE_BYTES

    def row_line_run(self, table: int, row: int) -> range:
        """All cache lines of a row, in ascending order."""
        first = self.row_first_line(table, row)
        last = (self.row_address(table, row) + self.row_bytes - 1) // CACHE_LINE_BYTES
        return range(first, last + 1)

    # -- vectorized streams ------------------------------------------------------

    def batch_first_lines(self, table: int, table_batch: TableBatch) -> np.ndarray:
        """First-line numbers of every lookup of one ``embedding_bag`` call."""
        if table_batch.indices.size and (
            table_batch.indices.max() >= self.rows_per_table[table]
        ):
            raise TraceError("trace indices exceed table rows in the address map")
        base = self.table_bases[table]
        addresses = base + table_batch.indices * self.row_bytes
        return addresses // CACHE_LINE_BYTES

    def row_id_of_line(self, line: int) -> "tuple[int, int] | None":
        """Inverse map: (table, row) owning a cache line, or None."""
        addr = line * CACHE_LINE_BYTES
        for table, base in enumerate(self.table_bases):
            end = base + self.rows_per_table[table] * self.row_bytes
            if base <= addr < end:
                return table, (addr - base) // self.row_bytes
        return None
