"""Index structures: hash primary-key indexes and FK join indexes.

The *eager index* loading variant of the paper builds primary and foreign
key indexes after loading; foreign-key indexes are join indexes (the paper:
"constructing the join index is actually computing the join itself",
Section VI-C).  Building them is what that variant pays for declaring keys:
Fig. 6's indexing time and Table III's ``+keys`` bytes.  No query reads
them; every join runs as a hash join.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import CatalogError
from .table import Table

__all__ = ["HashIndex", "JoinIndex"]


class HashIndex:
    """A hash map from key tuples to row ids of one table.

    The primary-key index the eager_index variant builds and keeps in step
    with inserts; :attr:`nbytes` is its share of Table III's ``+keys``.
    """

    def __init__(self, table_name: str, key_columns: Sequence[str]) -> None:
        if not key_columns:
            raise CatalogError("hash index requires at least one key column")
        self.table_name = table_name
        self.key_columns = tuple(key_columns)
        self._map: dict[tuple, list[int]] = {}
        self._rows_indexed = 0

    def build(self, table: Table) -> None:
        """(Re)build from scratch over the given table image."""
        self._map.clear()
        self._rows_indexed = 0
        self.extend(table, 0)

    def extend(self, table: Table, base_row: int) -> None:
        """Index additional rows whose ids start at ``base_row``."""
        key_cols = [table.column(name) for name in self.key_columns]
        for offset in range(table.num_rows):
            key = tuple(col[offset] for col in key_cols)
            self._map.setdefault(key, []).append(base_row + offset)
        self._rows_indexed += table.num_rows

    def lookup(self, key: tuple) -> list[int]:
        """Row ids matching the key (empty list when absent)."""
        return self._map.get(key, [])

    def contains(self, key: tuple) -> bool:
        return key in self._map

    def is_unique(self) -> bool:
        """True when no key maps to more than one row."""
        return all(len(rows) == 1 for rows in self._map.values())

    @property
    def nbytes(self) -> int:
        """Rough footprint estimate used for Table III (+keys column)."""
        # dict overhead per entry + key tuple + row-id list: a coarse model
        # comparable in spirit to MonetDB's hash index accounting.
        per_entry = 96
        return per_entry * len(self._map) + 8 * self._rows_indexed


class JoinIndex:
    """Precomputed FK → PK row-id mapping (a materialized join).

    ``positions[i]`` is the row id in the referenced table matching row ``i``
    of the referencing table, or -1 when the FK value dangles.  Building it
    evaluates the join once; that cost and :attr:`nbytes` are what the
    eager_index variant measures.
    """

    def __init__(
        self,
        fk_table: str,
        fk_columns: Sequence[str],
        pk_table: str,
        pk_columns: Sequence[str],
    ) -> None:
        if len(fk_columns) != len(pk_columns):
            raise CatalogError("join index key arity mismatch")
        self.fk_table = fk_table
        self.fk_columns = tuple(fk_columns)
        self.pk_table = pk_table
        self.pk_columns = tuple(pk_columns)
        self.positions = np.empty(0, dtype=np.int64)

    def build(self, fk_data: Table, pk_data: Table) -> None:
        """Compute the FK→PK positions (i.e. evaluate the join once)."""
        from .hashjoin import composite_codes_pair, equi_join_pairs

        positions = np.full(fk_data.num_rows, -1, dtype=np.int64)
        if fk_data.num_rows and pk_data.num_rows:
            fk_cols = [fk_data.column(name) for name in self.fk_columns]
            pk_cols = [pk_data.column(name) for name in self.pk_columns]
            fk_codes, pk_codes = composite_codes_pair(fk_cols, pk_cols)
            fk_rows, pk_rows = equi_join_pairs(fk_codes, pk_codes)
            positions[fk_rows] = pk_rows
        self.positions = positions

    @property
    def num_rows(self) -> int:
        return len(self.positions)

    @property
    def nbytes(self) -> int:
        return int(self.positions.nbytes)
