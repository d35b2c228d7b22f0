"""Tables: ordered collections of equal-length named columns.

A :class:`Schema` describes column names and types; a :class:`Table` binds a
schema to concrete :class:`~repro.engine.column.Column` data.  Tables are the
values flowing between the engine's bulk operators, and also what base
relations materialize to when scanned.

Column names inside the engine are *qualified* (``F.station``) once a table
participates in a plan; :meth:`Table.with_prefix` produces the qualified view
of a base table without copying column data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .column import Column, ColumnBuilder
from .errors import CatalogError, TypeMismatchError
from .types import DataType

__all__ = ["Field", "Schema", "Table", "TableBuilder"]


@dataclass(frozen=True)
class Field:
    """A named, typed slot in a schema."""

    name: str
    dtype: DataType

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}:{self.dtype.name}"


class Schema:
    """An ordered list of fields with unique names."""

    __slots__ = ("fields", "names", "_index")

    def __init__(self, fields: Sequence[Field]) -> None:
        names = [f.name for f in fields]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise CatalogError(f"duplicate column names in schema: {duplicates}")
        self.fields: tuple[Field, ...] = tuple(fields)
        self.names: tuple[str, ...] = tuple(names)
        self._index = {name: i for i, name in enumerate(names)}

    @classmethod
    def of(cls, *pairs: tuple[str, DataType]) -> "Schema":
        """Build a schema from (name, type) pairs."""
        return cls([Field(name, dtype) for name, dtype in pairs])

    def __len__(self) -> int:
        return len(self.fields)

    def __iter__(self) -> Iterator[Field]:
        return iter(self.fields)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self.fields == other.fields

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Schema(" + ", ".join(map(repr, self.fields)) + ")"

    def has(self, name: str) -> bool:
        return name in self._index

    def field(self, name: str) -> Field:
        try:
            return self.fields[self._index[name]]
        except KeyError:
            raise CatalogError(f"unknown column {name!r}") from None

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise CatalogError(f"unknown column {name!r}") from None

    def with_prefix(self, prefix: str) -> "Schema":
        """Qualify every column name with ``prefix.``."""
        return Schema([Field(f"{prefix}.{f.name}", f.dtype) for f in self.fields])

    def select(self, names: Sequence[str]) -> "Schema":
        """Sub-schema restricted to ``names`` in the given order."""
        return Schema([self.field(n) for n in names])

    def concat(self, other: "Schema") -> "Schema":
        """Schema of a join result: fields of self followed by other."""
        return Schema(list(self.fields) + list(other.fields))


class Table:
    """An immutable set of equal-length named columns.

    Tables are cheap to construct; they share column objects rather than
    copying data, so projections and renames are O(#columns).
    """

    __slots__ = ("schema", "columns")

    def __init__(self, schema: Schema, columns: Sequence[Column]) -> None:
        if len(schema) != len(columns):
            raise CatalogError(
                f"schema has {len(schema)} fields but {len(columns)} columns given"
            )
        length = len(columns[0]) if columns else 0
        for field, column in zip(schema, columns):
            if column.dtype is not field.dtype:
                raise TypeMismatchError(
                    f"column {field.name!r} expected {field.dtype.name}, "
                    f"got {column.dtype.name}"
                )
            if len(column) != length:
                raise CatalogError(
                    f"ragged table: column {field.name!r} has {len(column)} rows, "
                    f"expected {length}"
                )
        self.schema = schema
        self.columns: tuple[Column, ...] = tuple(columns)

    # -- construction ------------------------------------------------------

    @classmethod
    def empty(cls, schema: Schema) -> "Table":
        return cls(schema, [Column.empty(f.dtype) for f in schema])

    @classmethod
    def from_rows(cls, schema: Schema, rows: Iterable[Sequence[Any]]) -> "Table":
        """Build a table from an iterable of row tuples."""
        builders = [ColumnBuilder(f.dtype) for f in schema]
        for row in rows:
            if len(row) != len(schema):
                raise CatalogError(
                    f"row width {len(row)} does not match schema width {len(schema)}"
                )
            for builder, value in zip(builders, row):
                builder.append(value)
        return cls(schema, [b.finish() for b in builders])

    @classmethod
    def from_columns(cls, named: Mapping[str, Column]) -> "Table":
        """Build a table from a name → column mapping (insertion order kept)."""
        schema = Schema([Field(name, col.dtype) for name, col in named.items()])
        return cls(schema, list(named.values()))

    # -- basic protocol ----------------------------------------------------

    @property
    def num_rows(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    @property
    def nbytes(self) -> int:
        return sum(c.nbytes for c in self.columns)

    @property
    def resident_nbytes(self) -> int:
        """Heap bytes (mmap-backed columns count 0, see Column)."""
        return sum(c.resident_nbytes for c in self.columns)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Table({self.schema!r}, rows={self.num_rows})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self.schema == other.schema and all(
            a == b for a, b in zip(self.columns, other.columns)
        )

    def column(self, name: str) -> Column:
        return self.columns[self.schema.index_of(name)]

    def row(self, index: int) -> tuple[Any, ...]:
        return tuple(col[index] for col in self.columns)

    def rows(self) -> Iterator[tuple[Any, ...]]:
        for i in range(self.num_rows):
            yield self.row(i)

    def to_dicts(self) -> list[dict[str, Any]]:
        """Materialize as a list of row dictionaries (for tests/reporting)."""
        names = self.schema.names
        return [dict(zip(names, row)) for row in self.rows()]

    # -- bulk operations ---------------------------------------------------

    def take(self, indices: np.ndarray) -> "Table":
        return Table(self.schema, [c.take(indices) for c in self.columns])

    def filter(self, mask: np.ndarray) -> "Table":
        return Table(self.schema, [c.filter(mask) for c in self.columns])

    def slice(self, start: int, stop: int) -> "Table":
        return Table(self.schema, [c.slice(start, stop) for c in self.columns])

    def project(self, names: Sequence[str]) -> "Table":
        """Keep only the named columns, in the given order (no data copy)."""
        return Table(
            self.schema.select(names), [self.column(n) for n in names]
        )

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        """Rename columns; names absent from the mapping are kept."""
        fields = [
            Field(mapping.get(f.name, f.name), f.dtype) for f in self.schema
        ]
        return Table(Schema(fields), list(self.columns))

    def with_prefix(self, prefix: str) -> "Table":
        """Qualify all column names with ``prefix.`` (no data copy)."""
        return Table(self.schema.with_prefix(prefix), list(self.columns))

    def concat(self, other: "Table") -> "Table":
        """Union-all of two tables with identical schemas."""
        if other.schema != self.schema:
            raise CatalogError("concat requires identical schemas")
        return Table(
            self.schema,
            [a.concat(b) for a, b in zip(self.columns, other.columns)],
        )

    @staticmethod
    def concat_all(tables: Sequence["Table"]) -> "Table":
        """Union-all of a non-empty sequence of identically-typed tables."""
        if not tables:
            raise ValueError("concat_all requires at least one table")
        first = tables[0]
        for table in tables[1:]:
            if table.schema != first.schema:
                raise CatalogError("concat_all requires identical schemas")
        if len(tables) == 1:
            return first
        columns = [
            Column.concat_all([t.columns[i] for t in tables])
            for i in range(first.num_columns)
        ]
        return Table(first.schema, columns)

    def zip_columns(self, other: "Table") -> "Table":
        """Horizontal concatenation (used to build join outputs)."""
        if other.num_rows != self.num_rows and self.num_columns and other.num_columns:
            raise CatalogError("zip_columns requires equal row counts")
        return Table(
            self.schema.concat(other.schema),
            list(self.columns) + list(other.columns),
        )


class TableBuilder:
    """Row-oriented builder producing a :class:`Table` (loading paths)."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._builders = [ColumnBuilder(f.dtype) for f in schema]

    def __len__(self) -> int:
        return len(self._builders[0]) if self._builders else 0

    def append_row(self, row: Sequence[Any]) -> None:
        if len(row) != len(self.schema):
            raise CatalogError(
                f"row width {len(row)} does not match schema width {len(self.schema)}"
            )
        for builder, value in zip(self._builders, row):
            builder.append(value)

    def append_columns(self, arrays: Sequence[np.ndarray]) -> None:
        """Bulk-append one array per column (vectorized ingestion)."""
        if len(arrays) != len(self.schema):
            raise CatalogError("append_columns width mismatch")
        lengths = {len(a) for a in arrays}
        if len(lengths) > 1:
            raise CatalogError("append_columns requires equal-length arrays")
        for builder, array in zip(self._builders, arrays):
            builder.extend_array(np.asarray(array))

    def finish(self) -> Table:
        return Table(self.schema, [b.finish() for b in self._builders])
