"""Physical evaluation of logical plans: bulk operators over columns.

The executor walks a :class:`~repro.engine.algebra.LogicalPlan` and
materializes a :class:`~repro.engine.table.Table` per node — MonetDB-style
bulk processing, which is what makes the paper's two-stage break between
sub-plans natural.  Only the columns read above a node are materialized:
each operator tells its children which columns its own expressions and
its parent read (:func:`execute_plan`'s ``needed``), which is the
projection pushdown of Section III done at execution time.  The plans
themselves keep their full schemas.

All heavy lifting is vectorized: selections evaluate predicates over whole
columns, joins run through :mod:`repro.engine.hashjoin`, and aggregation is
bincount/ufunc based.  An :class:`ExecutionContext` carries the database
handle (for scans, chunk loading and caches), the stage-result registry used
by ``result-scan``, and the counters experiments read.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, AbstractSet, Sequence

import numpy as np

from . import algebra
from .column import Column
from .errors import ExecutionError, PlanError, QueryCancelled
from .expressions import (
    Comparison,
    ColumnRef,
    Expression,
    conjuncts,
    referenced_columns,
)
from .hashjoin import composite_codes_pair, equi_join_pairs
from .scan import filter_piece, record_outcome, run_schedule
from .table import Schema, Table
from .types import FLOAT64, INT64, STRING, TIMESTAMP
from ..util.counters import Counters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .database import Database

__all__ = [
    "CancelToken",
    "ExecStats",
    "ExecutionContext",
    "execute_plan",
]


class CancelToken:
    """Cooperative cancellation flag, safe to set from any thread.

    A serving front end hands one token per request down to the executor;
    setting it makes the query raise :class:`QueryCancelled` at the next
    operator entry or chunk boundary, unwinding the query so its admission
    slot frees cleanly.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def raise_if_cancelled(self) -> None:
        if self._event.is_set():
            raise QueryCancelled("query cancelled by its cancel token")


@dataclass
class ExecStats(Counters):
    """Counters accumulated during plan evaluation."""

    rows_scanned: int = 0
    chunks_loaded: int = 0
    chunks_from_cache: int = 0
    chunks_rehydrated: int = 0
    chunks_pruned: int = 0
    chunks_prefetched: int = 0
    chunk_rows_loaded: int = 0
    # Chunks of scans another query had in flight with an identical key:
    # fetched + chunks_shared == chunks planned.
    chunks_shared: int = 0
    joins_executed: int = 0
    rows_joined: int = 0
    # Result-recycler outcomes: the whole query was answered from a cached
    # result (exact repeat) or by re-filtering a covering one (subsumed).
    results_from_cache: int = 0
    results_subsumed: int = 0


@dataclass
class ExecutionContext:
    """Everything a physical operator needs at run time."""

    database: "Database"
    stage_results: dict[str, Table] = field(default_factory=dict)
    stats: ExecStats = field(default_factory=ExecStats)
    cancel: CancelToken | None = None
    # uri -> how its fetch was served ("loaded", "rehydrated", "hit",
    # "coalesced"), filled by scan.record_outcome on the query thread.
    chunk_outcomes: dict[str, str] = field(default_factory=dict)

    def check_cancelled(self) -> None:
        if self.cancel is not None:
            self.cancel.raise_if_cancelled()


def execute_plan(
    plan: algebra.LogicalPlan,
    ctx: ExecutionContext,
    needed: AbstractSet[str] | None = None,
) -> Table:
    """Evaluate a logical plan bottom-up, returning its result table.

    ``needed`` names the columns the caller reads; ``None`` means all of
    them (the root of a plan).  The result carries every needed column of
    the plan's schema and possibly others, but a node gathers, filters and
    concatenates only what its parent reads; each operator derives its
    children's need from its own expressions.  A node whose need is empty
    still carries one column, so its row count survives (``COUNT(*)``).
    """
    ctx.check_cancelled()
    if isinstance(plan, algebra.Scan):
        return _execute_scan(plan, ctx, needed)
    if isinstance(plan, algebra.Select):
        return _execute_select(plan, ctx, needed)
    if isinstance(plan, algebra.Project):
        return _execute_project(plan, ctx)
    if isinstance(plan, algebra.Join):
        return _execute_join(plan, ctx, needed)
    if isinstance(plan, algebra.Aggregate):
        return _execute_aggregate(plan, ctx)
    if isinstance(plan, algebra.Union):
        tables = [execute_plan(child, ctx, needed) for child in plan.children()]
        names = [
            name
            for name in _kept(plan.schema.names, needed)
            if all(table.schema.has(name) for table in tables)
        ]
        return Table.concat_all([table.project(names) for table in tables])
    if isinstance(plan, algebra.Sort):
        return _execute_sort(plan, ctx, needed)
    if isinstance(plan, algebra.Limit):
        child = execute_plan(plan.child, ctx, needed)
        return child.slice(0, min(plan.count, child.num_rows))
    if isinstance(plan, algebra.Distinct):
        return _execute_distinct(plan, ctx)
    if isinstance(plan, algebra.EmptyRelation):
        return Table.empty(plan.schema)
    if isinstance(plan, algebra.ResultScan):
        return _execute_result_scan(plan, ctx, needed)
    if isinstance(plan, algebra.ParallelChunkScan):
        return _execute_parallel_chunk_scan(plan, ctx, needed)
    raise PlanError(f"no physical implementation for {type(plan).__name__}")


def _kept(names: Sequence[str], needed: AbstractSet[str] | None) -> list[str]:
    """The ``names`` a node emits for its parent's need, in their order.

    All of them when the need is unknown (``None``); otherwise the needed
    ones, or the first name alone when none is needed, so the node's row
    count survives.
    """
    if needed is None:
        return list(names)
    kept = [name for name in names if name in needed]
    return kept or list(names[:1])


def _narrowed(table: Table, needed: AbstractSet[str] | None) -> Table:
    """``table`` with the columns :func:`_kept` keeps (itself if all)."""
    if needed is None:
        return table
    names = _kept(table.schema.names, needed)
    return table if len(names) == table.num_columns else table.project(names)


def _widen(
    needed: AbstractSet[str] | None,
    expressions: Sequence[Expression] = (),
    names: Sequence[str] = (),
) -> set[str] | None:
    """``needed`` plus the columns of ``expressions`` and ``names``."""
    if needed is None:
        return None
    wider = set(needed).union(names)
    for expression in expressions:
        wider |= referenced_columns(expression)
    return wider


# -- scans ---------------------------------------------------------------------


def _execute_scan(
    plan: algebra.Scan, ctx: ExecutionContext, needed: AbstractSet[str] | None
) -> Table:
    table = ctx.database.scan_base_table(plan.table_name)
    ctx.stats.rows_scanned += table.num_rows
    return _narrowed(table, needed)


def _execute_result_scan(
    plan: algebra.ResultScan,
    ctx: ExecutionContext,
    needed: AbstractSet[str] | None,
) -> Table:
    try:
        table = ctx.stage_results[plan.tag]
    except KeyError:
        raise ExecutionError(
            f"result-scan: no stage result tagged {plan.tag!r}"
        ) from None
    return _narrowed(table, needed)


def _scan_local(
    ctx: ExecutionContext, plan: algebra.ParallelChunkScan, names: list[str]
) -> list[Table]:
    """Filtered pieces of the plan's chunks (assembly order), fetched locally.

    Fetches are issued in assembly order — serially on the query
    thread with ``io_threads == 1``, through the database's shared I/O pool
    otherwise; each chunk is accounted, filtered and projected to
    ``names`` on the query thread as it completes.  Every chunk comes whole
    from :meth:`~repro.engine.database.Database.fetch_chunk`, which serves
    it from either recycler tier or loads it.
    """
    database = ctx.database
    uris = plan.uris
    pieces: list[Table | None] = [None] * len(uris)

    def fetch(index: int) -> tuple[Table, str]:
        return database.fetch_chunk(uris[index], plan.table_name)

    def ingest(index: int, fetched: tuple[Table, str]) -> None:
        chunk, outcome = fetched
        record_outcome(ctx, uris[index], outcome, chunk)
        pieces[index] = filter_piece(chunk, names, plan.pushed_predicate)

    pool = database.io_executor(plan.io_threads) if plan.io_threads > 1 else None
    run_schedule(range(len(uris)), fetch, ingest, ctx.check_cancelled, pool)
    return pieces


def _execute_parallel_chunk_scan(
    plan: algebra.ParallelChunkScan,
    ctx: ExecutionContext,
    needed: AbstractSet[str] | None,
) -> Table:
    """The planned chunk scan: one loop, one result per identical scan.

    :func:`_scan_local` fetches the plan's chunks; whatever the serving
    tier and the completion order, the concatenation follows the plan's assembly
    (URI) order, so the rows do not depend on who runs the scan.  That is
    why identical scans in flight at the same time — same table, chunks,
    pushed predicate and emitted columns, over the same catalog version —
    run once (:meth:`~repro.engine.database.Database.scan_once`): the
    other callers take the owner's table and count its chunks as
    ``chunks_shared``.  The version term keeps a scan issued after a
    write to F or S from joining one issued before it.

    The scan emits only the needed columns of its schema, which is the
    base table's qualified columns, exactly what a chunk holds.
    """
    names = _kept(plan.schema.names, needed)
    if not plan.uris:
        return Table.empty(plan.schema.select(names))
    predicate = plan.pushed_predicate
    key = (
        plan.table_name,
        plan.uris,
        predicate.key() if predicate is not None else None,
        tuple(names),
        ctx.database.catalog.versions((plan.table_name,)),
    )
    table, shared = ctx.database.scan_once(
        key,
        lambda: Table.concat_all(_scan_local(ctx, plan, names)),
        ctx.check_cancelled,
    )
    if shared:
        ctx.stats.chunks_shared += len(plan.uris)
    return table


# -- row-level operators ---------------------------------------------------------


def _execute_select(
    plan: algebra.Select, ctx: ExecutionContext, needed: AbstractSet[str] | None
) -> Table:
    child = execute_plan(plan.child, ctx, _widen(needed, [plan.predicate]))
    mask = np.asarray(plan.predicate.evaluate(child), dtype=np.bool_)
    return _narrowed(child, needed).filter(mask)


def _execute_project(plan: algebra.Project, ctx: ExecutionContext) -> Table:
    expressions = [expression for _name, expression in plan.outputs]
    child = execute_plan(plan.child, ctx, _widen(set(), expressions))
    columns = []
    for expression, fld in zip(expressions, plan.schema):
        values = expression.evaluate(child)
        if fld.dtype is STRING and not isinstance(values, np.ndarray):
            raise ExecutionError("projection produced a non-array value")
        columns.append(Column(fld.dtype, np.asarray(values)))
    return Table(plan.schema, columns)


def _execute_sort(
    plan: algebra.Sort, ctx: ExecutionContext, needed: AbstractSet[str] | None
) -> Table:
    child = execute_plan(
        plan.child, ctx, _widen(needed, names=[key.name for key in plan.keys])
    )
    if child.num_rows == 0:
        return child
    # lexsort sorts by the *last* key first; feed keys in reverse order.
    key_arrays = []
    for key in reversed(plan.keys):
        values = child.column(key.name).values
        if values.dtype == object:
            # Factorize strings into sortable codes.
            order = {v: i for i, v in enumerate(sorted(set(values)))}
            values = np.fromiter(
                (order[v] for v in values), dtype=np.int64, count=len(values)
            )
        if not key.ascending:
            values = -values if values.dtype != np.bool_ else ~values
        key_arrays.append(values)
    indices = np.lexsort(key_arrays)
    return _narrowed(child, needed).take(indices)


def _execute_distinct(plan: algebra.Distinct, ctx: ExecutionContext) -> Table:
    child = execute_plan(plan.child, ctx)
    if child.num_rows == 0:
        return child
    seen: set[tuple] = set()
    keep: list[int] = []
    for i, row in enumerate(child.rows()):
        if row not in seen:
            seen.add(row)
            keep.append(i)
    return child.take(np.asarray(keep, dtype=np.int64))


# -- joins -----------------------------------------------------------------------


def _split_condition_by_schema(
    condition: Expression | None, left: Schema, right: Schema
) -> tuple[list[tuple[str, str]], list[Expression]]:
    """Partition a join condition into (left_col, right_col) equi pairs
    and residual conjuncts, based on schema membership."""
    pairs: list[tuple[str, str]] = []
    residual: list[Expression] = []
    for conjunct in conjuncts(condition):
        if (
            isinstance(conjunct, Comparison)
            and conjunct.op == "="
            and isinstance(conjunct.left, ColumnRef)
            and isinstance(conjunct.right, ColumnRef)
        ):
            a, b = conjunct.left.name, conjunct.right.name
            if left.has(a) and right.has(b) and not (left.has(b) or right.has(a)):
                pairs.append((a, b))
                continue
            if left.has(b) and right.has(a) and not (left.has(a) or right.has(b)):
                pairs.append((b, a))
                continue
        residual.append(conjunct)
    return pairs, residual


def _execute_join(
    plan: algebra.Join, ctx: ExecutionContext, needed: AbstractSet[str] | None
) -> Table:
    """Match keys on the key columns, then gather only what is read above.

    The children are asked for the needed columns and the condition's
    columns; the matched pairs then gather only the needed and residual
    columns.
    """
    pairs, residual = _split_condition_by_schema(
        plan.condition, plan.left.schema, plan.right.schema
    )
    child_need = _widen(needed, conjuncts(plan.condition))
    left = execute_plan(plan.left, ctx, child_need)
    right = execute_plan(plan.right, ctx, child_need)
    ctx.stats.joins_executed += 1

    if pairs:
        left_codes, right_codes = composite_codes_pair(
            [left.column(a) for a, _ in pairs], [right.column(b) for _, b in pairs]
        )
        left_rows, right_rows = equi_join_pairs(left_codes, right_codes)
    else:  # cross product (rule R2's tool), filtered by the residual below
        n, m = left.num_rows, right.num_rows
        left_rows = np.repeat(np.arange(n, dtype=np.int64), m)
        right_rows = np.tile(np.arange(m, dtype=np.int64), n)

    gathered = _widen(needed, residual)
    if gathered is not None:
        names = _kept(left.schema.names + right.schema.names, gathered)
        left = left.project([name for name in names if left.schema.has(name)])
        right = right.project([name for name in names if right.schema.has(name)])
    joined = left.take(left_rows).zip_columns(right.take(right_rows))
    for extra in residual:
        mask = np.asarray(extra.evaluate(joined), dtype=np.bool_)
        joined = joined.filter(mask)
    ctx.stats.rows_joined += joined.num_rows
    return joined


# -- aggregation ------------------------------------------------------------------


def _group_codes(table: Table, group_by: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Return (group_id_per_row, representative_row_per_group)."""
    codes = np.zeros(table.num_rows, dtype=np.int64)
    for name in group_by:
        values = table.column(name).values
        if values.dtype == object:
            mapping: dict = {}
            local = np.empty(len(values), dtype=np.int64)
            for i, value in enumerate(values):
                local[i] = mapping.setdefault(value, len(mapping))
            cardinality = max(len(mapping), 1)
        else:
            uniques, local = np.unique(values, return_inverse=True)
            local = local.astype(np.int64, copy=False)
            cardinality = max(len(uniques), 1)
        codes = codes * np.int64(cardinality) + local
    _, first_rows, group_ids = np.unique(codes, return_index=True, return_inverse=True)
    return group_ids.astype(np.int64, copy=False), first_rows.astype(np.int64)


def _aggregate_values(
    function: str, values: np.ndarray | None, group_ids: np.ndarray, num_groups: int
) -> np.ndarray:
    counts = np.bincount(group_ids, minlength=num_groups).astype(np.float64)
    if function == "COUNT":
        return counts.astype(np.int64)
    assert values is not None
    as_float = values.astype(np.float64, copy=False)
    sums = np.bincount(group_ids, weights=as_float, minlength=num_groups)
    if function == "SUM":
        return sums
    if function == "AVG":
        with np.errstate(invalid="ignore", divide="ignore"):
            return sums / counts
    if function == "STD":
        sumsq = np.bincount(
            group_ids, weights=as_float * as_float, minlength=num_groups
        )
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = sums / counts
            variance = sumsq / counts - mean * mean
        return np.sqrt(np.maximum(variance, 0.0))
    if function in ("MIN", "MAX"):
        fill = np.inf if function == "MIN" else -np.inf
        out = np.full(num_groups, fill, dtype=np.float64)
        ufunc = np.minimum if function == "MIN" else np.maximum
        ufunc.at(out, group_ids, as_float)
        return out
    raise ExecutionError(f"unknown aggregate {function!r}")  # pragma: no cover


def _execute_aggregate(plan: algebra.Aggregate, ctx: ExecutionContext) -> Table:
    arguments = [s.argument for s in plan.aggregates if s.argument is not None]
    child = execute_plan(plan.child, ctx, _widen(set(), arguments, plan.group_by))
    if plan.group_by:
        return _grouped_aggregate(plan, child)
    return _scalar_aggregate(plan, child)


def _grouped_aggregate(plan: algebra.Aggregate, child: Table) -> Table:
    if child.num_rows == 0:
        return Table.empty(plan.schema)
    group_ids, first_rows = _group_codes(child, plan.group_by)
    num_groups = len(first_rows)
    columns: list[Column] = [
        child.column(name).take(first_rows) for name in plan.group_by
    ]
    for spec, fld in zip(plan.aggregates, plan.schema.fields[len(plan.group_by) :]):
        values = (
            None if spec.argument is None else np.asarray(spec.argument.evaluate(child))
        )
        raw = _aggregate_values(spec.function, values, group_ids, num_groups)
        columns.append(_cast_aggregate_output(raw, fld.dtype))
    return Table(plan.schema, columns)


def _scalar_aggregate(plan: algebra.Aggregate, child: Table) -> Table:
    columns: list[Column] = []
    empty = child.num_rows == 0
    group_ids = np.zeros(child.num_rows, dtype=np.int64)
    for spec, fld in zip(plan.aggregates, plan.schema.fields):
        if empty:
            if spec.function == "COUNT":
                raw = np.asarray([0], dtype=np.int64)
            elif fld.dtype is FLOAT64:
                raw = np.asarray([np.nan], dtype=np.float64)
            else:
                raw = np.asarray([0], dtype=np.int64)
        else:
            values = (
                None
                if spec.argument is None
                else np.asarray(spec.argument.evaluate(child))
            )
            raw = _aggregate_values(spec.function, values, group_ids, 1)
        columns.append(_cast_aggregate_output(np.asarray(raw), fld.dtype))
    return Table(plan.schema, columns)


def _cast_aggregate_output(raw: np.ndarray, dtype) -> Column:
    if dtype in (INT64, TIMESTAMP):
        return Column(dtype, raw.astype(np.int64))
    if dtype is FLOAT64:
        return Column(dtype, raw.astype(np.float64))
    return Column(dtype, raw)
