"""Database catalog: base tables, views, constraints, and data *kinds*.

The paper partitions the schema ``T = M ∪ A`` into metadata tables (GMd),
actual-data tables (AD), plus derived-metadata tables (DMd) that act as
partially materialized views (Sections II-III).  The catalog records that
classification (:class:`TableKind`) because the whole two-stage execution
model — which tables are red vs. black in the join graph, which scans get
rewritten at run time — is driven by it.

Base tables always keep an authoritative in-memory :class:`Table`; tables
can additionally be *paged* to disk so scans pay buffer-pool costs (see
:mod:`repro.engine.storage`).

Every base table carries a write ``version``: each write takes a fresh
number from one process-wide sequence *after* the new rows are in place,
so a reader that sees a version also sees its rows.  Anything derived
from catalog state (the result cache, the chunk directory) records the
versions it was built from and is current exactly while
:meth:`Catalog.versions` still returns them — nothing is told to
invalidate.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Iterable, Sequence

from .errors import CatalogError
from .table import Schema, Table

__all__ = ["TableKind", "ForeignKey", "BaseTable", "ViewDefinition", "Catalog"]

# ``next()`` on a count is atomic under the GIL: concurrent writers never
# share a version, and a version is never reused for another table state.
_WRITE_VERSIONS = itertools.count(1)


class TableKind(enum.Enum):
    """Classification of a base table per the paper's Section III schema."""

    METADATA = "metadata"  # GMd: loaded eagerly by the Registrar
    ACTUAL = "actual"  # AD: loaded lazily per chunk
    DERIVED = "derived"  # DMd: incrementally materialized views

    @property
    def is_red(self) -> bool:
        """Red vertices of the query graph are metadata of either flavour."""
        return self in (TableKind.METADATA, TableKind.DERIVED)


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key constraint (also the blueprint for a join index)."""

    columns: tuple[str, ...]
    ref_table: str
    ref_columns: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.ref_columns):
            raise CatalogError("foreign key column count mismatch")


@dataclass
class BaseTable:
    """Catalog entry for a base relation."""

    name: str
    schema: Schema
    kind: TableKind
    primary_key: tuple[str, ...] = ()
    foreign_keys: tuple[ForeignKey, ...] = ()
    data: Table = dataclass_field(default=None)  # type: ignore[assignment]
    paged: bool = False
    version: int = dataclass_field(default_factory=lambda: next(_WRITE_VERSIONS))

    def __post_init__(self) -> None:
        if self.data is None:
            self.data = Table.empty(self.schema)
        for key_column in self.primary_key:
            if not self.schema.has(key_column):
                raise CatalogError(
                    f"primary key column {key_column!r} not in table {self.name!r}"
                )
        for foreign_key in self.foreign_keys:
            for key_column in foreign_key.columns:
                if not self.schema.has(key_column):
                    raise CatalogError(
                        f"foreign key column {key_column!r} not in "
                        f"table {self.name!r}"
                    )

    @property
    def num_rows(self) -> int:
        return self.data.num_rows

    def append(self, rows: Table) -> None:
        """Append rows (schema-checked) to the in-memory image."""
        if rows.schema.names != self.schema.names:
            raise CatalogError(
                f"append to {self.name!r}: column names differ "
                f"({rows.schema.names} vs {self.schema.names})"
            )
        self.data = self.data.concat(rows)
        self.mark_written()

    def replace(self, rows: Table) -> None:
        """Replace the entire in-memory image."""
        if rows.schema.names != self.schema.names:
            raise CatalogError(f"replace on {self.name!r}: schema mismatch")
        self.data = rows
        self.mark_written()

    def truncate(self) -> None:
        self.data = Table.empty(self.schema)
        self.mark_written()

    def mark_written(self) -> None:
        """Take a fresh version; call once the written rows are in place."""
        self.version = next(_WRITE_VERSIONS)


@dataclass(frozen=True)
class ViewDefinition:
    """A non-materialized view: a name bound to a logical plan factory.

    The factory is invoked at bind time so each query gets a fresh plan tree
    it may rewrite destructively.  ``windowdataview`` and ``dataview`` of the
    paper are registered this way.
    """

    name: str
    plan_factory: Callable[[], object]
    description: str = ""


class Catalog:
    """Name → object directory for one database."""

    def __init__(self) -> None:
        self._tables: dict[str, BaseTable] = {}
        self._views: dict[str, ViewDefinition] = {}

    # -- tables --------------------------------------------------------------

    def create_table(
        self,
        name: str,
        schema: Schema,
        kind: TableKind,
        primary_key: Sequence[str] = (),
        foreign_keys: Iterable[ForeignKey] = (),
    ) -> BaseTable:
        if name in self._tables or name in self._views:
            raise CatalogError(f"catalog object {name!r} already exists")
        entry = BaseTable(
            name=name,
            schema=schema,
            kind=kind,
            primary_key=tuple(primary_key),
            foreign_keys=tuple(foreign_keys),
        )
        self._tables[name] = entry
        return entry

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise CatalogError(f"unknown table {name!r}")
        del self._tables[name]

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table(self, name: str) -> BaseTable:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def tables(self) -> list[BaseTable]:
        return list(self._tables.values())

    def tables_of_kind(self, kind: TableKind) -> list[BaseTable]:
        return [t for t in self._tables.values() if t.kind is kind]

    def metadata_table_names(self) -> set[str]:
        """Names of all red tables (GMd and DMd)."""
        return {t.name for t in self._tables.values() if t.kind.is_red}

    def actual_table_names(self) -> set[str]:
        return {
            t.name for t in self._tables.values() if t.kind is TableKind.ACTUAL
        }

    def versions(self, names: Iterable[str]) -> tuple[tuple[str, int], ...]:
        """The ``(table, version)`` pairs an answer over ``names`` depends on.

        A lazy actual-data table *is* "the chunks the metadata names", so
        naming any ACTUAL table adds every GMd (METADATA) table: registering
        a repository writes only F and S, yet changes ``COUNT(*)`` over D.
        """
        tables = {name: self.table(name) for name in names}
        if any(t.kind is TableKind.ACTUAL for t in tables.values()):
            for t in self.tables_of_kind(TableKind.METADATA):
                tables[t.name] = t
        return tuple(sorted((name, t.version) for name, t in tables.items()))

    # -- views ----------------------------------------------------------------

    def create_view(
        self,
        name: str,
        plan_factory: Callable[[], object],
        description: str = "",
    ) -> ViewDefinition:
        if name in self._views or name in self._tables:
            raise CatalogError(f"catalog object {name!r} already exists")
        view = ViewDefinition(name, plan_factory, description)
        self._views[name] = view
        return view

    def has_view(self, name: str) -> bool:
        return name in self._views

    def view(self, name: str) -> ViewDefinition:
        try:
            return self._views[name]
        except KeyError:
            raise CatalogError(f"unknown view {name!r}") from None

    def views(self) -> list[ViewDefinition]:
        return list(self._views.values())

    # -- introspection ----------------------------------------------------------

    def describe(self) -> str:
        """Human-readable catalog summary (used by examples)."""
        lines = []
        for table in self._tables.values():
            lines.append(
                f"table {table.name} [{table.kind.value}] "
                f"rows={table.num_rows} cols={len(table.schema)}"
            )
        for view in self._views.values():
            lines.append(f"view  {view.name}: {view.description}")
        return "\n".join(lines)
