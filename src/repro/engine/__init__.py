"""The columnar engine substrate (a MonetDB-like stand-in).

This package is the generic DBMS the paper's contribution plugs into:
columns and tables (:mod:`column`, :mod:`table`), a catalog with data-kind
classification (:mod:`catalog`), logical algebra (:mod:`algebra`) and the
query graph its join blocks are ordered over (:mod:`join_graph`),
expressions and the literal-bound analysis shared by every pruning
consumer (:mod:`expressions`, :mod:`predicates`), vectorized physical
operators (:mod:`physical`, :mod:`hashjoin`) with the one chunk-scan loop
(:mod:`scan`), the statistics-driven chunk planner (:mod:`chunk_planner`,
:mod:`chunk_stats`), paged storage with a buffer pool (:mod:`storage`),
the Recycler chunk cache and its spill store (:mod:`recycler`,
:mod:`chunk_store`), index structures (:mod:`indexes`) and a SQL
front-end (:mod:`sql`).

The paper-specific machinery — two-stage execution, coloring rules,
incremental metadata derivation — lives in :mod:`repro.core` and composes
these pieces.
"""

from .catalog import Catalog, ForeignKey, TableKind
from .chunk_store import ChunkStore, ChunkStoreStats
from .column import Column, ColumnBuilder
from .database import Database
from .errors import (
    BindError,
    CatalogError,
    EngineError,
    ExecutionError,
    FormatError,
    LexerError,
    ParseError,
    PlanError,
    SQLError,
    StorageError,
    TypeMismatchError,
)
from .physical import ExecutionContext, ExecStats, execute_plan
from .recycler import Recycler
from .storage import BufferPool, PagedColumnStore
from .table import Field, Schema, Table, TableBuilder
from .types import BOOL, FLOAT64, INT64, STRING, TIMESTAMP

__all__ = [
    "BOOL",
    "BindError",
    "BufferPool",
    "Catalog",
    "CatalogError",
    "ChunkStore",
    "ChunkStoreStats",
    "Column",
    "ColumnBuilder",
    "Database",
    "EngineError",
    "ExecStats",
    "ExecutionContext",
    "ExecutionError",
    "Field",
    "FLOAT64",
    "ForeignKey",
    "FormatError",
    "INT64",
    "LexerError",
    "PagedColumnStore",
    "ParseError",
    "PlanError",
    "Recycler",
    "SQLError",
    "STRING",
    "Schema",
    "StorageError",
    "TIMESTAMP",
    "Table",
    "TableBuilder",
    "TableKind",
    "TypeMismatchError",
    "execute_plan",
]
