"""Shared predicate analysis: literal bounds on a column.

Two consumers extract ``column op literal`` conjuncts from predicates and
historically each grew its own copy of the orientation/bound logic:

* the compile-time optimizer (:mod:`repro.core.two_stage`) needs the raw
  ``(op, literal)`` pairs to run time-bound inference onto segment
  metadata;
* the chunk planner (:mod:`repro.engine.chunk_planner`) needs to test
  whether a chunk's min/max statistics can possibly satisfy each bound.

This module is the single implementation both share.  Only *literal*
bounds are considered; both orientations (``column op literal`` and
``literal op column``) are normalized to column-on-the-left form.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .expressions import ColumnRef, Comparison, Expression, Literal, conjuncts

__all__ = [
    "is_numeric_literal",
    "oriented_bound_conjuncts",
    "oriented_literal_comparisons",
    "literal_bounds_by_column",
    "closed_int_bounds",
    "range_may_satisfy",
]

_BOUND_OPS = ("=", "<", "<=", ">", ">=")


def is_numeric_literal(value: object) -> bool:
    """A value range/containment logic may order numerically.

    Bools are excluded (they are ints in Python but never a range bound);
    the single definition shared by the chunk planner's pruning tests and
    the result cache's bound extraction.
    """
    return not isinstance(value, bool) and isinstance(
        value, (int, float, np.integer, np.floating)
    )


def oriented_bound_conjuncts(
    predicate: Expression,
) -> Iterator[tuple[str, str, Literal]]:
    """Yield ``(column, op, literal)`` for every literal bound conjunct.

    The single normalization loop every consumer builds on: comparisons
    are oriented so the column is on the left (a flipped comparison yields
    the flipped operator); non-comparison conjuncts, comparisons against
    non-literals and non-bound operators are skipped.  Public because the
    semantic result cache uses the same normalization to split a plan into
    its bound-free template plus per-column bounds.
    """
    for conjunct in conjuncts(predicate):
        if not isinstance(conjunct, Comparison):
            continue
        for oriented in (conjunct, conjunct.flipped()):
            if (
                isinstance(oriented.left, ColumnRef)
                and isinstance(oriented.right, Literal)
                and oriented.op in _BOUND_OPS
            ):
                yield oriented.left.name, oriented.op, oriented.right
                break


def oriented_literal_comparisons(
    predicate: Expression, column: str
) -> Iterator[tuple[str, Literal]]:
    """``(op, literal)`` for every conjunct bounding the named column."""
    for found, op, literal in oriented_bound_conjuncts(predicate):
        if found == column:
            yield op, literal


def literal_bounds_by_column(
    predicate: Expression | None,
) -> dict[str, list[tuple[str, object]]]:
    """All literal bound conjuncts, grouped by the column they constrain.

    Returns ``{column: [(op, value), ...]}`` with values taken from the
    literals.  Used by the chunk planner to prune against per-chunk
    statistics without knowing the schema in advance.
    """
    if predicate is None:
        return {}
    found: dict[str, list[tuple[str, object]]] = {}
    for column, op, literal in oriented_bound_conjuncts(predicate):
        found.setdefault(column, []).append((op, literal.value))
    return found


def closed_int_bounds(
    ops: list[tuple[str, object]],
) -> tuple[int | None, int | None]:
    """Inclusive ``[low, high]`` integer bounds implied by bound conjuncts.

    Used to probe integer-domain zone maps (timestamps are int64
    milliseconds).  Non-integer values are ignored.
    """
    low: int | None = None
    high: int | None = None
    for op, value in ops:
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            continue
        bound = int(value)
        if op in (">=", "="):
            low = bound if low is None else max(low, bound)
        if op == ">":
            low = bound + 1 if low is None else max(low, bound + 1)
        if op in ("<=", "="):
            high = bound if high is None else min(high, bound)
        if op == "<":
            high = bound - 1 if high is None else min(high, bound - 1)
    return low, high


def range_may_satisfy(
    op: str, value: object, minimum: float, maximum: float
) -> bool:
    """Can any point of ``[minimum, maximum]`` satisfy ``point op value``?

    Conservative by construction: unknown operators and non-numeric values
    return True (never prune on what we cannot reason about).
    """
    if not is_numeric_literal(value):
        return True
    bound = float(value)
    if op == ">=":
        return maximum >= bound
    if op == ">":
        return maximum > bound
    if op == "<=":
        return minimum <= bound
    if op == "<":
        return minimum < bound
    if op == "=":
        return minimum <= bound <= maximum
    return True
