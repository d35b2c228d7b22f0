"""The binder: parsed SQL → bound logical plan against a database catalog.

Responsibilities:

* resolve the FROM object (base table or non-materialized view — views
  expand to their defining plan, exactly how ``dataview`` and
  ``windowdataview`` work in the paper's schema);
* resolve column names: unqualified names must match exactly one visible
  column of the FROM plan by suffix; qualified names must exist;
* coerce ISO timestamp string literals when compared against TIMESTAMP
  columns (``D.sample_time > '2010-01-12T22:15:00.000'``);
* plan aggregation: aggregate calls in the select list become an
  :class:`~repro.engine.algebra.Aggregate` node, and the select expressions
  are rewritten to reference its outputs;
* apply DISTINCT / ORDER BY / LIMIT on top.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .. import algebra
from ..errors import BindError
from ..expressions import (
    Arithmetic,
    BooleanOp,
    ColumnRef,
    Comparison,
    Expression,
    IsIn,
    Literal,
)
from ..table import Table
from ..types import STRING, TIMESTAMP, parse_timestamp
from .ast_nodes import AggregateCall, SelectStatement
from .parser import parse_select

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..database import Database

__all__ = ["bind_sql", "bind_statement", "Binder"]


def bind_sql(sql: str, database: "Database") -> algebra.LogicalPlan:
    """Parse and bind SQL text into a logical plan."""
    return bind_statement(parse_select(sql), database)


def bind_statement(
    statement: SelectStatement, database: "Database"
) -> algebra.LogicalPlan:
    return Binder(database).bind(statement)


class Binder:
    """Binds one statement; not reusable across statements."""

    def __init__(self, database: "Database") -> None:
        self._database = database
        self._aggregate_specs: list[algebra.AggregateSpec] = []
        self._aggregate_names: dict[tuple, str] = {}

    # -- entry point ---------------------------------------------------------

    def bind(self, statement: SelectStatement) -> algebra.LogicalPlan:
        plan = self._bind_from(statement.from_name)
        schema = plan.schema
        probe = Table.empty(schema)

        if statement.where is not None:
            predicate = self._bind_expression(statement.where, schema, probe)
            self._reject_aggregates(predicate, "WHERE")
            plan = algebra.Select(plan, predicate)

        group_names = [
            self._resolve_name(self._require_column(g, "GROUP BY").name, schema)
            for g in statement.group_by
        ]

        if statement.select_star:
            if self._uses_aggregates(statement) or group_names:
                raise BindError(
                    "SELECT * cannot be combined with aggregation or GROUP BY"
                )
            outputs = [(name, ColumnRef(name)) for name in schema.names]
            plan = algebra.Project(plan, outputs)
        else:
            bound_items = [
                (
                    item.output_name(),
                    self._bind_expression(item.expression, schema, probe),
                )
                for item in statement.select_items
            ]
            if self._aggregate_specs or group_names:
                plan = algebra.Aggregate(plan, group_names, self._aggregate_specs)
                # Select expressions now evaluate over the aggregate output.
                outputs = [
                    (name, self._replace_aggregates(expr))
                    for name, expr in bound_items
                ]
                plan = algebra.Project(plan, outputs)
            else:
                plan = algebra.Project(plan, bound_items)

        if statement.distinct:
            plan = algebra.Distinct(plan)

        if statement.order_by:
            keys = []
            for order_item in statement.order_by:
                column = self._require_column(order_item.expression, "ORDER BY")
                name = self._resolve_output_name(column.name, plan.schema)
                keys.append(algebra.SortKey(name, order_item.ascending))
            plan = algebra.Sort(plan, keys)

        if statement.limit is not None:
            plan = algebra.Limit(plan, statement.limit)
        return plan

    # -- FROM resolution --------------------------------------------------------

    def _bind_from(self, name: str) -> algebra.LogicalPlan:
        catalog = self._database.catalog
        if catalog.has_table(name):
            return algebra.Scan(name, self._database.qualified_schema(name))
        if catalog.has_view(name):
            plan = catalog.view(name).plan_factory()
            if not isinstance(plan, algebra.LogicalPlan):
                raise BindError(
                    f"view {name!r} factory returned {type(plan).__name__}, "
                    "expected a LogicalPlan"
                )
            return plan
        raise BindError(f"unknown table or view {name!r}")

    # -- name resolution -----------------------------------------------------------

    def _resolve_name(self, raw: str, schema) -> str:
        names = schema.names
        if raw in names:
            return raw
        if "." not in raw:
            matches = [n for n in names if n.rsplit(".", 1)[-1] == raw]
            if len(matches) == 1:
                return matches[0]
            if len(matches) > 1:
                raise BindError(
                    f"ambiguous column {raw!r}: matches {sorted(matches)}"
                )
        raise BindError(
            f"unknown column {raw!r} (available: {sorted(names)[:12]}...)"
        )

    def _resolve_output_name(self, raw: str, schema) -> str:
        if schema.has(raw):
            return raw
        try:
            return self._resolve_name(raw, schema)
        except BindError:
            raise BindError(
                f"ORDER BY column {raw!r} must appear in the select output"
            ) from None

    @staticmethod
    def _require_column(expression: Expression, clause: str) -> ColumnRef:
        if not isinstance(expression, ColumnRef):
            raise BindError(f"{clause} supports plain column references only")
        return expression

    # -- expression binding -----------------------------------------------------------

    def _bind_expression(
        self, expression: Expression, schema, probe: Table
    ) -> Expression:
        bound = self._rewrite(expression, schema)
        return self._coerce_timestamps(bound, probe)

    def _rewrite(self, expression: Expression, schema) -> Expression:
        if isinstance(expression, ColumnRef):
            return ColumnRef(self._resolve_name(expression.name, schema))
        if isinstance(expression, Literal):
            return expression
        if isinstance(expression, Comparison):
            return Comparison(
                expression.op,
                self._rewrite(expression.left, schema),
                self._rewrite(expression.right, schema),
            )
        if isinstance(expression, BooleanOp):
            return BooleanOp(
                expression.op,
                [self._rewrite(o, schema) for o in expression.operands],
            )
        if isinstance(expression, Arithmetic):
            return Arithmetic(
                expression.op,
                self._rewrite(expression.left, schema),
                self._rewrite(expression.right, schema),
            )
        if isinstance(expression, IsIn):
            return IsIn(
                self._rewrite(expression.operand, schema), expression.options
            )
        if isinstance(expression, AggregateCall):
            argument = (
                None
                if expression.argument is None
                else self._rewrite(expression.argument, schema)
            )
            return self._register_aggregate(expression.function, argument)
        raise BindError(
            f"unsupported expression node {type(expression).__name__}"
        )

    def _register_aggregate(
        self, function: str, argument: Expression | None
    ) -> AggregateCall:
        call = AggregateCall(function, argument)
        key = call.key()
        if key not in self._aggregate_names:
            name = f"__agg{len(self._aggregate_specs)}"
            self._aggregate_names[key] = name
            self._aggregate_specs.append(
                algebra.AggregateSpec(function, argument, name)
            )
        return call

    def _replace_aggregates(self, expression: Expression) -> Expression:
        """Swap AggregateCall nodes for refs to the Aggregate node outputs."""
        if isinstance(expression, AggregateCall):
            return ColumnRef(self._aggregate_names[expression.key()])
        if isinstance(expression, Comparison):
            return Comparison(
                expression.op,
                self._replace_aggregates(expression.left),
                self._replace_aggregates(expression.right),
            )
        if isinstance(expression, BooleanOp):
            return BooleanOp(
                expression.op,
                [self._replace_aggregates(o) for o in expression.operands],
            )
        if isinstance(expression, Arithmetic):
            return Arithmetic(
                expression.op,
                self._replace_aggregates(expression.left),
                self._replace_aggregates(expression.right),
            )
        if isinstance(expression, IsIn):
            return IsIn(
                self._replace_aggregates(expression.operand), expression.options
            )
        return expression

    def _coerce_timestamps(self, expression: Expression, probe: Table) -> Expression:
        """Convert string literals compared against TIMESTAMP columns."""
        if isinstance(expression, Comparison):
            left = self._coerce_timestamps(expression.left, probe)
            right = self._coerce_timestamps(expression.right, probe)
            left, right = self._coerce_pair(left, right, probe)
            return Comparison(expression.op, left, right)
        if isinstance(expression, BooleanOp):
            return BooleanOp(
                expression.op,
                [self._coerce_timestamps(o, probe) for o in expression.operands],
            )
        if isinstance(expression, IsIn):
            operand = self._coerce_timestamps(expression.operand, probe)
            if self._safe_type(operand, probe) is TIMESTAMP:
                options = tuple(
                    parse_timestamp(v) if isinstance(v, str) else v
                    for v in expression.options
                )
                return IsIn(operand, options)
            return IsIn(operand, expression.options)
        if isinstance(expression, Arithmetic):
            return Arithmetic(
                expression.op,
                self._coerce_timestamps(expression.left, probe),
                self._coerce_timestamps(expression.right, probe),
            )
        return expression

    def _coerce_pair(
        self, left: Expression, right: Expression, probe: Table
    ) -> tuple[Expression, Expression]:
        left_type = self._safe_type(left, probe)
        right_type = self._safe_type(right, probe)
        if (
            left_type is TIMESTAMP
            and isinstance(right, Literal)
            and right.dtype is STRING
        ):
            right = Literal(parse_timestamp(right.value), TIMESTAMP)
        elif (
            right_type is TIMESTAMP
            and isinstance(left, Literal)
            and left.dtype is STRING
        ):
            left = Literal(parse_timestamp(left.value), TIMESTAMP)
        return left, right

    @staticmethod
    def _safe_type(expression: Expression, probe: Table):
        if isinstance(expression, AggregateCall):
            return None
        try:
            return expression.output_type(probe)
        # typing probe is best-effort: None means "defer the type
        # decision", and every failure mode maps to the same answer.
        # repro: ignore[swallow]
        except Exception:  # noqa: BLE001
            return None

    # -- aggregate placement checks -------------------------------------------------

    def _reject_aggregates(self, expression: Expression, clause: str) -> None:
        for node in expression.walk():
            if isinstance(node, AggregateCall):
                raise BindError(f"aggregate calls are not allowed in {clause}")

    @staticmethod
    def _uses_aggregates(statement: SelectStatement) -> bool:
        for item in statement.select_items:
            for node in item.expression.walk():
                if isinstance(node, AggregateCall):
                    return True
        return False
