"""Logical relational algebra: the plan representation of the engine.

Plans are trees of :class:`LogicalPlan` nodes.  Besides the classic
operators (scan, select, project, join, aggregate, union, sort, limit) the
module defines the paper's additional access paths (Section III,
"Physical Query Plan"):

* :class:`ResultScan` — re-reads the result of an already-evaluated
  sub-plan (used to feed ``result-scan(Qf)`` into stage two);
* :class:`ParallelChunkScan` — rule (1)'s ``∪ (cache-scan(f) |
  chunk-access(f))`` as one node: each planned chunk is read from the
  Recycler when cached and otherwise extracted, transformed and ingested
  from the external repository (the lazy-loading operator).

Schemas are resolved eagerly at node construction; every node knows its
output :class:`~repro.engine.table.Schema` and the set of base tables in its
subtree (needed by the two-stage decomposition).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .errors import PlanError, TypeMismatchError
from .expressions import Expression, referenced_columns
from .table import Field, Schema
from .types import DataType, FLOAT64, INT64

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .chunk_planner import ChunkPlan

__all__ = [
    "LogicalPlan",
    "Scan",
    "Select",
    "Project",
    "Join",
    "Aggregate",
    "AggregateSpec",
    "Union",
    "Sort",
    "SortKey",
    "Limit",
    "Distinct",
    "EmptyRelation",
    "ResultScan",
    "ParallelChunkScan",
    "AGGREGATE_FUNCTIONS",
]

AGGREGATE_FUNCTIONS = ("COUNT", "SUM", "AVG", "MIN", "MAX", "STD")


class LogicalPlan:
    """Base class for logical plan nodes."""

    schema: Schema

    def children(self) -> Sequence["LogicalPlan"]:
        return ()

    def with_children(self, children: Sequence["LogicalPlan"]) -> "LogicalPlan":
        """The same operator over new children (a leaf returns itself).

        ``children`` matches :meth:`children` in number and order; every
        plan rewrite rebuilds the nodes it passes through with this.
        """
        return self

    def base_tables(self) -> set[str]:
        """Names of every base table scanned in this subtree."""
        result: set[str] = set()
        for child in self.children():
            result |= child.base_tables()
        return result

    def pretty(self, indent: int = 0) -> str:
        """Multi-line plan rendering for debugging and the examples."""
        pad = "  " * indent
        lines = [pad + self.describe()]
        for child in self.children():
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def describe(self) -> str:
        return type(self).__name__

    def _validate_predicate(self, predicate: Expression, schema: Schema) -> None:
        missing = [
            name for name in referenced_columns(predicate) if not schema.has(name)
        ]
        if missing:
            raise PlanError(
                f"predicate references unknown columns {missing} "
                f"(available: {list(schema.names)})"
            )


class Scan(LogicalPlan):
    """Scan of a base table; output columns are qualified (``F.station``)."""

    def __init__(self, table_name: str, schema: Schema) -> None:
        self.table_name = table_name
        self.schema = schema

    def base_tables(self) -> set[str]:
        return {self.table_name}

    def describe(self) -> str:
        return f"Scan({self.table_name})"


class Select(LogicalPlan):
    """Filter rows by a boolean predicate."""

    def __init__(self, child: LogicalPlan, predicate: Expression) -> None:
        self._validate_predicate(predicate, child.schema)
        self.child = child
        self.predicate = predicate
        self.schema = child.schema

    def children(self) -> Sequence[LogicalPlan]:
        return (self.child,)

    def with_children(self, children: Sequence[LogicalPlan]) -> "Select":
        (child,) = children
        return Select(child, self.predicate)

    def describe(self) -> str:
        return f"Select({self.predicate!r})"


class Project(LogicalPlan):
    """Compute named output expressions (projection + renaming)."""

    def __init__(
        self, child: LogicalPlan, outputs: Sequence[tuple[str, Expression]]
    ) -> None:
        if not outputs:
            raise PlanError("projection requires at least one output")
        self.child = child
        self.outputs = list(outputs)
        from .table import Table  # local import to avoid cycle at module load

        probe = Table.empty(child.schema)
        fields = []
        for name, expression in self.outputs:
            self._validate_predicate(expression, child.schema)
            fields.append(Field(name, expression.output_type(probe)))
        self.schema = Schema(fields)

    def children(self) -> Sequence[LogicalPlan]:
        return (self.child,)

    def with_children(self, children: Sequence[LogicalPlan]) -> "Project":
        (child,) = children
        return Project(child, self.outputs)

    def describe(self) -> str:
        rendered = ", ".join(f"{n}={e!r}" for n, e in self.outputs)
        return f"Project({rendered})"


class Join(LogicalPlan):
    """Inner join (condition None ⇒ cross product, rule R2's tool)."""

    def __init__(
        self,
        left: LogicalPlan,
        right: LogicalPlan,
        condition: Expression | None,
    ) -> None:
        self.left = left
        self.right = right
        self.schema = left.schema.concat(right.schema)
        if condition is not None:
            self._validate_predicate(condition, self.schema)
        self.condition = condition

    def children(self) -> Sequence[LogicalPlan]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[LogicalPlan]) -> "Join":
        left, right = children
        return Join(left, right, self.condition)

    @property
    def is_cross_product(self) -> bool:
        return self.condition is None

    def describe(self) -> str:
        if self.condition is None:
            return "CrossProduct"
        return f"Join({self.condition!r})"


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate output: ``function(argument) AS output_name``."""

    function: str
    argument: Expression | None  # None only for COUNT(*)
    output_name: str

    def __post_init__(self) -> None:
        if self.function not in AGGREGATE_FUNCTIONS:
            raise PlanError(f"unknown aggregate function {self.function!r}")
        if self.argument is None and self.function != "COUNT":
            raise PlanError(f"{self.function} requires an argument")

    def output_type(self, input_schema: Schema) -> DataType:
        from .table import Table

        if self.function == "COUNT":
            return INT64
        probe = Table.empty(input_schema)
        arg_type = self.argument.output_type(probe)
        if self.function in ("AVG", "STD"):
            return FLOAT64
        if self.function == "SUM":
            return FLOAT64 if arg_type is FLOAT64 else INT64
        return arg_type  # MIN / MAX keep the input type


class Aggregate(LogicalPlan):
    """Grouped or scalar aggregation."""

    def __init__(
        self,
        child: LogicalPlan,
        group_by: Sequence[str],
        aggregates: Sequence[AggregateSpec],
    ) -> None:
        if not aggregates and not group_by:
            raise PlanError("aggregate requires group keys or aggregates")
        for name in group_by:
            if not child.schema.has(name):
                raise PlanError(f"unknown group-by column {name!r}")
        for spec in aggregates:
            if spec.argument is not None:
                self._validate_predicate(spec.argument, child.schema)
        self.child = child
        self.group_by = list(group_by)
        self.aggregates = list(aggregates)
        fields = [child.schema.field(n) for n in group_by]
        fields += [
            Field(s.output_name, s.output_type(child.schema)) for s in aggregates
        ]
        self.schema = Schema(fields)

    def children(self) -> Sequence[LogicalPlan]:
        return (self.child,)

    def with_children(self, children: Sequence[LogicalPlan]) -> "Aggregate":
        (child,) = children
        return Aggregate(child, self.group_by, self.aggregates)

    def describe(self) -> str:
        keys = ", ".join(self.group_by) or "()"
        aggs = ", ".join(
            f"{s.function}({s.argument!r})->{s.output_name}" for s in self.aggregates
        )
        return f"Aggregate(by=[{keys}]; {aggs})"


class Union(LogicalPlan):
    """Union-all over children with identical schemas.

    The paper's rewrite rule (1) is a union of per-chunk accesses; here
    that union is the single :class:`ParallelChunkScan` node.
    """

    def __init__(self, children: Sequence[LogicalPlan]) -> None:
        if not children:
            raise PlanError("union requires at least one child")
        first = children[0].schema
        for child in children[1:]:
            if child.schema.names != first.names:
                raise PlanError("union children must share column names")
            for f_a, f_b in zip(first, child.schema):
                if f_a.dtype is not f_b.dtype:
                    raise TypeMismatchError(
                        f"union type mismatch on {f_a.name}: "
                        f"{f_a.dtype.name} vs {f_b.dtype.name}"
                    )
        self._children = list(children)
        self.schema = first

    def children(self) -> Sequence[LogicalPlan]:
        return tuple(self._children)

    def with_children(self, children: Sequence[LogicalPlan]) -> "Union":
        return Union(children)

    def describe(self) -> str:
        return f"UnionAll({len(self._children)} inputs)"


@dataclass(frozen=True)
class SortKey:
    name: str
    ascending: bool = True


class Sort(LogicalPlan):
    """Order rows by one or more keys."""

    def __init__(self, child: LogicalPlan, keys: Sequence[SortKey]) -> None:
        if not keys:
            raise PlanError("sort requires at least one key")
        for key in keys:
            if not child.schema.has(key.name):
                raise PlanError(f"unknown sort column {key.name!r}")
        self.child = child
        self.keys = list(keys)
        self.schema = child.schema

    def children(self) -> Sequence[LogicalPlan]:
        return (self.child,)

    def with_children(self, children: Sequence[LogicalPlan]) -> "Sort":
        (child,) = children
        return Sort(child, self.keys)

    def describe(self) -> str:
        rendered = ", ".join(
            f"{k.name} {'ASC' if k.ascending else 'DESC'}" for k in self.keys
        )
        return f"Sort({rendered})"


class Limit(LogicalPlan):
    """Keep the first ``count`` rows."""

    def __init__(self, child: LogicalPlan, count: int) -> None:
        if count < 0:
            raise PlanError("limit must be non-negative")
        self.child = child
        self.count = count
        self.schema = child.schema

    def children(self) -> Sequence[LogicalPlan]:
        return (self.child,)

    def with_children(self, children: Sequence[LogicalPlan]) -> "Limit":
        (child,) = children
        return Limit(child, self.count)

    def describe(self) -> str:
        return f"Limit({self.count})"


class Distinct(LogicalPlan):
    """Remove duplicate rows."""

    def __init__(self, child: LogicalPlan) -> None:
        self.child = child
        self.schema = child.schema

    def children(self) -> Sequence[LogicalPlan]:
        return (self.child,)

    def with_children(self, children: Sequence[LogicalPlan]) -> "Distinct":
        (child,) = children
        return Distinct(child)


class EmptyRelation(LogicalPlan):
    """A leaf producing zero rows (used as a unit stage-one plan for
    queries with no metadata branch at all)."""

    def __init__(self, schema: Schema | None = None) -> None:
        self.schema = schema if schema is not None else Schema([])

    def describe(self) -> str:
        return "EmptyRelation"


class ResultScan(LogicalPlan):
    """Access path over the result of an already-evaluated sub-plan.

    ``tag`` names a slot in the execution context's stage-result registry;
    stage one stores ``result-scan(Qf)`` there and stage two reads it back.
    """

    def __init__(self, tag: str, schema: Schema) -> None:
        self.tag = tag
        self.schema = schema

    def describe(self) -> str:
        return f"ResultScan({self.tag})"


class ParallelChunkScan(LogicalPlan):
    """Access path ingesting a planned chunk set through one scheduler.

    Rule (1)'s union of per-chunk cache-scans and chunk-accesses as one
    node.  It carries a
    :class:`~repro.engine.chunk_planner.ChunkPlan` — the statistics-pruned
    contract of the chunk planner — and every source honors it
    identically: fetches are issued and output rows placed in the plan's
    assembly order, so results are bit-identical across serial
    (``io_threads == 1``) and pooled execution.  Cached chunks
    are served from the Recycler; loads of the same URI issued by
    concurrent queries are coalesced (single-flight), and so are whole
    scans: identical nodes executing at the same time produce one result
    (:meth:`~repro.engine.database.Database.scan_once`).  An uncached
    chunk is always read whole, so the recycler can keep it;
    ``pushed_predicate`` is a selection pushed into the access per the
    second rewrite rule of Section III.
    """

    def __init__(
        self,
        plan: "ChunkPlan",
        table_name: str,
        schema: Schema,
        pushed_predicate: Expression | None = None,
        io_threads: int = 4,
    ) -> None:
        self.plan = plan
        self.table_name = table_name
        self.schema = schema
        self.pushed_predicate = pushed_predicate
        self.io_threads = io_threads

    @property
    def uris(self) -> tuple[str, ...]:
        return self.plan.uris

    def base_tables(self) -> set[str]:
        return {self.table_name}

    def describe(self) -> str:
        suffix = (
            f", push={self.pushed_predicate!r}"
            if self.pushed_predicate is not None
            else ""
        )
        if self.plan.pruned:
            suffix = f", pruned={len(self.plan.pruned)}{suffix}"
        return (
            f"ParallelChunkScan({len(self.uris)} chunks, "
            f"io_threads={self.io_threads}{suffix})"
        )
