"""Scalar expression AST with vectorized (columnar) evaluation.

Expressions appear in selections, join conditions, and projection lists.
Evaluation is bulk: :meth:`Expression.evaluate` receives a
:class:`~repro.engine.table.Table` and returns a NumPy array covering every
row at once — the engine never interprets expressions row by row.

The module also provides the predicate analysis the paper's optimizer needs:
conjunct splitting, referenced-table extraction, and recognition of
equi-join conditions (for hash joins and for the query-graph edges of
Section III).
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import TypeMismatchError
from .table import Table
from .types import (
    BOOL,
    DataType,
    FLOAT64,
    INT64,
    STRING,
    common_numeric_type,
    infer_type,
)

__all__ = [
    "Expression",
    "ColumnRef",
    "Literal",
    "Comparison",
    "BooleanOp",
    "Arithmetic",
    "IsIn",
    "conjuncts",
    "conjoin",
    "referenced_columns",
    "referenced_tables",
    "rename_columns",
    "split_equi_join",
    "col",
    "lit",
]

_COMPARATORS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "=": np.equal,
    "<>": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}

_ARITHMETIC: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.true_divide,
    "%": np.mod,
}


class Expression:
    """Base class of the expression AST."""

    def evaluate(self, table: Table) -> np.ndarray:
        """Evaluate over all rows of ``table``; returns a NumPy array."""
        raise NotImplementedError

    def output_type(self, table: Table) -> DataType:
        """The logical type this expression produces against ``table``."""
        raise NotImplementedError

    def children(self) -> Sequence["Expression"]:
        return ()

    def walk(self) -> Iterator["Expression"]:
        """Pre-order traversal of the expression tree."""
        yield self
        for child in self.children():
            yield from child.walk()

    @cached_property
    def _columns(self) -> frozenset[str]:
        # Expressions are immutable, so the executor, which asks every
        # execution, walks each tree once.
        return frozenset(
            node.name for node in self.walk() if isinstance(node, ColumnRef)
        )

    # Structural equality lets optimizer rules dedupe predicates.
    def key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Expression):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())


class ColumnRef(Expression):
    """Reference to a (qualified) column, e.g. ``F.station``."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def evaluate(self, table: Table) -> np.ndarray:
        return table.column(self.name).values

    def output_type(self, table: Table) -> DataType:
        return table.schema.field(self.name).dtype

    def key(self) -> tuple:
        return ("col", self.name)

    def __repr__(self) -> str:
        return self.name

    @property
    def table_name(self) -> str | None:
        """The qualifier part of the name, if any (``F.station`` → ``F``)."""
        if "." in self.name:
            return self.name.split(".", 1)[0]
        return None


class Literal(Expression):
    """A constant value."""

    __slots__ = ("value", "dtype")

    def __init__(self, value: Any, dtype: DataType | None = None) -> None:
        self.dtype = dtype if dtype is not None else infer_type(value)
        self.value = self.dtype.coerce_value(value)

    def evaluate(self, table: Table) -> np.ndarray:
        if self.dtype is STRING:
            array = np.empty(table.num_rows, dtype=object)
            array[:] = self.value
            return array
        return np.full(table.num_rows, self.value, dtype=self.dtype.numpy_dtype)

    def output_type(self, table: Table) -> DataType:
        return self.dtype

    def key(self) -> tuple:
        return ("lit", self.dtype.name, self.value)

    def __repr__(self) -> str:
        if self.dtype is STRING:
            return f"'{self.value}'"
        return repr(self.value)


class Comparison(Expression):
    """A binary comparison producing a boolean array."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in _COMPARATORS:
            raise TypeMismatchError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, table: Table) -> np.ndarray:
        left = self.left.evaluate(table)
        right = self.right.evaluate(table)
        return _COMPARATORS[self.op](left, right)

    def output_type(self, table: Table) -> DataType:
        return BOOL

    def children(self) -> Sequence[Expression]:
        return (self.left, self.right)

    def key(self) -> tuple:
        return ("cmp", self.op, self.left.key(), self.right.key())

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"

    def flipped(self) -> "Comparison":
        """The same condition with sides swapped (``a < b`` → ``b > a``)."""
        flip = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
        return Comparison(flip[self.op], self.right, self.left)


class BooleanOp(Expression):
    """AND / OR over sub-expressions, or NOT over one."""

    __slots__ = ("op", "operands")

    def __init__(self, op: str, operands: Sequence[Expression]) -> None:
        if op not in ("AND", "OR", "NOT"):
            raise TypeMismatchError(f"unknown boolean operator {op!r}")
        if op == "NOT" and len(operands) != 1:
            raise TypeMismatchError("NOT takes exactly one operand")
        if op in ("AND", "OR") and len(operands) < 2:
            raise TypeMismatchError(f"{op} takes at least two operands")
        self.op = op
        self.operands = tuple(operands)

    def evaluate(self, table: Table) -> np.ndarray:
        parts = [np.asarray(o.evaluate(table), dtype=np.bool_) for o in self.operands]
        if self.op == "NOT":
            return ~parts[0]
        result = parts[0]
        for part in parts[1:]:
            result = (result & part) if self.op == "AND" else (result | part)
        return result

    def output_type(self, table: Table) -> DataType:
        return BOOL

    def children(self) -> Sequence[Expression]:
        return self.operands

    def key(self) -> tuple:
        return ("bool", self.op, tuple(o.key() for o in self.operands))

    def __repr__(self) -> str:
        if self.op == "NOT":
            return f"NOT {self.operands[0]!r}"
        joiner = f" {self.op} "
        return "(" + joiner.join(repr(o) for o in self.operands) + ")"


class Arithmetic(Expression):
    """Binary arithmetic (+, -, *, /, %) over numeric expressions."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in _ARITHMETIC:
            raise TypeMismatchError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, table: Table) -> np.ndarray:
        left = self.left.evaluate(table)
        right = self.right.evaluate(table)
        result = _ARITHMETIC[self.op](left, right)
        if self.output_type(table) is INT64 and result.dtype != np.int64:
            result = result.astype(np.int64)
        return result

    def output_type(self, table: Table) -> DataType:
        left = self.left.output_type(table)
        right = self.right.output_type(table)
        if self.op == "/":
            return FLOAT64
        return common_numeric_type(left, right)

    def children(self) -> Sequence[Expression]:
        return (self.left, self.right)

    def key(self) -> tuple:
        return ("arith", self.op, self.left.key(), self.right.key())

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class IsIn(Expression):
    """Membership test against a literal set (``x IN (...)``)."""

    __slots__ = ("operand", "options")

    def __init__(self, operand: Expression, options: Sequence[Any]) -> None:
        self.operand = operand
        self.options = tuple(options)

    def evaluate(self, table: Table) -> np.ndarray:
        values = self.operand.evaluate(table)
        if values.dtype == object:
            option_set = set(self.options)
            return np.fromiter(
                (v in option_set for v in values), dtype=np.bool_, count=len(values)
            )
        return np.isin(values, np.asarray(self.options))

    def output_type(self, table: Table) -> DataType:
        return BOOL

    def children(self) -> Sequence[Expression]:
        return (self.operand,)

    def key(self) -> tuple:
        return ("isin", self.operand.key(), self.options)

    def __repr__(self) -> str:
        return f"({self.operand!r} IN {list(self.options)!r})"


# -- predicate analysis ------------------------------------------------------


def conjuncts(expression: Expression | None) -> list[Expression]:
    """Split a predicate into its top-level AND-ed conjuncts."""
    if expression is None:
        return []
    if isinstance(expression, BooleanOp) and expression.op == "AND":
        result: list[Expression] = []
        for operand in expression.operands:
            result.extend(conjuncts(operand))
        return result
    return [expression]


def conjoin(parts: Sequence[Expression]) -> Expression | None:
    """Re-assemble conjuncts into a single predicate (None when empty)."""
    parts = [p for p in parts if p is not None]
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    return BooleanOp("AND", parts)


def referenced_columns(expression: Expression) -> frozenset[str]:
    """All column names referenced anywhere in the expression."""
    return expression._columns


def rename_columns(
    expression: Expression, names: Mapping[str, str]
) -> Expression:
    """A copy of ``expression`` with column references renamed by ``names``."""
    if isinstance(expression, ColumnRef):
        return ColumnRef(names.get(expression.name, expression.name))
    if isinstance(expression, (Comparison, Arithmetic)):
        return type(expression)(
            expression.op,
            rename_columns(expression.left, names),
            rename_columns(expression.right, names),
        )
    if isinstance(expression, BooleanOp):
        return BooleanOp(
            expression.op,
            [rename_columns(operand, names) for operand in expression.operands],
        )
    if isinstance(expression, IsIn):
        return IsIn(rename_columns(expression.operand, names), expression.options)
    return expression


def referenced_tables(expression: Expression) -> set[str]:
    """All table qualifiers referenced in the expression.

    Unqualified column references contribute nothing; the binder qualifies
    all names before plans reach the optimizer, so in practice every
    reference carries its table.
    """
    tables: set[str] = set()
    for node in expression.walk():
        if isinstance(node, ColumnRef) and node.table_name is not None:
            tables.add(node.table_name)
    return tables


def split_equi_join(
    condition: Expression, left_tables: set[str], right_tables: set[str]
) -> tuple[list[tuple[str, str]], list[Expression]]:
    """Separate a join condition into equi-key pairs and residual conjuncts.

    Returns ``(pairs, residual)`` where ``pairs`` is a list of
    ``(left_column, right_column)`` names usable as hash-join keys, and
    ``residual`` contains every conjunct that is not a simple equality
    between one column of each side.
    """
    pairs: list[tuple[str, str]] = []
    residual: list[Expression] = []
    for conjunct in conjuncts(condition):
        if (
            isinstance(conjunct, Comparison)
            and conjunct.op == "="
            and isinstance(conjunct.left, ColumnRef)
            and isinstance(conjunct.right, ColumnRef)
        ):
            left_table = conjunct.left.table_name
            right_table = conjunct.right.table_name
            if left_table in left_tables and right_table in right_tables:
                pairs.append((conjunct.left.name, conjunct.right.name))
                continue
            if left_table in right_tables and right_table in left_tables:
                pairs.append((conjunct.right.name, conjunct.left.name))
                continue
        residual.append(conjunct)
    return pairs, residual


def col(name: str) -> ColumnRef:
    """Shorthand constructor for a column reference."""
    return ColumnRef(name)


def lit(value: Any, dtype: DataType | None = None) -> Literal:
    """Shorthand constructor for a literal."""
    return Literal(value, dtype)
