"""Shared predicate analysis: what ``column op literal`` allows.

Every consumer that turns literal predicates into bounds goes through this
module, so they agree on orientation, edge inclusivity and rounding:

* the chunk planner (:mod:`repro.engine.chunk_planner`) asks whether a
  chunk's decoded min/max ranges can hold a qualifying row;
* the semantic result cache (:mod:`repro.core.result_cache`) asks whether
  a cached result's bounds cover a new query's;
* Algorithm 1 (:mod:`repro.core.partial_views`) asks which station and
  channel values and which integer timestamps the query allows, to
  enumerate the DMd key space ``PSq``;
* the compile-time optimizer (:mod:`repro.core.two_stage`) reads the raw
  oriented conjuncts to infer time bounds onto segment metadata.

Only *literal* bounds are considered; both orientations (``column op
literal`` and ``literal op column``) are normalized to column-on-the-left
form by :func:`oriented_bound_conjuncts`, the one place a comparison is
flipped.  :class:`LiteralBounds` is the canonical per-column form the
other three consumers share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .expressions import ColumnRef, Comparison, Expression, Literal, conjuncts

__all__ = [
    "LiteralBounds",
    "oriented_bound_conjuncts",
]

_BOUND_OPS = ("=", "<", "<=", ">", ">=")


def _is_numeric(value: object) -> bool:
    """A value range/containment logic may order numerically.

    Bools are excluded (they are ints in Python but never a range bound).
    """
    return not isinstance(value, bool) and isinstance(
        value, (int, float, np.integer, np.floating)
    )


def oriented_bound_conjuncts(
    predicate: Expression | None,
) -> Iterator[tuple[str, str, Literal]]:
    """Yield ``(column, op, literal)`` for every literal bound conjunct.

    The single normalization loop every consumer builds on: comparisons
    are oriented so the column is on the left (a flipped comparison yields
    the flipped operator); non-comparison conjuncts, comparisons against
    non-literals and non-bound operators are skipped.
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


# A range edge is ``(value, inclusive)``.  High edges order as they are
# (the smaller is tighter: ``< 5`` before ``<= 5``); low edges order by
# this key (the larger is tighter: ``> 5`` after ``>= 5``).
def _low_key(edge: tuple) -> tuple:
    return edge[0], not edge[1]


def _admits_low(edge: tuple | None, point: object) -> bool:
    return edge is None or point > edge[0] or (point == edge[0] and edge[1])


def _admits_high(edge: tuple | None, point: object) -> bool:
    return edge is None or point < edge[0] or (point == edge[0] and edge[1])


@dataclass(frozen=True)
class LiteralBounds:
    """Canonical form of one column's literal bound conjuncts.

    ``eq`` holds the values of ``=`` conjuncts (any literal type); ``low``
    / ``high`` are the tightest range edges as ``(value, inclusive)``
    pairs.  Range conjuncts against a non-numeric literal are dropped: they
    bound nothing this type can order.  The form is canonical, so
    ``t >= 5 AND t >= 3`` equals ``t >= 5`` whatever the conjunct order.
    """

    eq: tuple = ()
    low: tuple | None = None  # (value, inclusive)
    high: tuple | None = None

    @classmethod
    def from_conjuncts(
        cls, ops: Iterable[tuple[str, object]]
    ) -> "LiteralBounds":
        """Bounds from oriented ``(op, value)`` pairs on one column."""
        eq: list = []
        low: tuple | None = None
        high: tuple | None = None
        for op, value in ops:
            if op == "=":
                if value not in eq:
                    eq.append(value)
            elif _is_numeric(value):
                edge = (value, op.endswith("="))
                if op.startswith(">"):
                    low = edge if low is None else max(low, edge, key=_low_key)
                else:
                    high = edge if high is None else min(high, edge)
        return cls(eq=tuple(sorted(eq, key=repr)), low=low, high=high)

    @classmethod
    def by_column(
        cls, predicate: Expression | None
    ) -> dict[str, "LiteralBounds"]:
        """Bounds of every column the predicate's conjuncts bound.

        Columns whose only conjuncts bound nothing (a range against a
        string) are left out, so an empty dict means "no literal bound".
        """
        ops: dict[str, list[tuple[str, object]]] = {}
        if predicate is not None:
            for column, op, literal in oriented_bound_conjuncts(predicate):
                ops.setdefault(column, []).append((op, literal.value))
        found = {column: cls.from_conjuncts(pairs) for column, pairs in ops.items()}
        return {column: b for column, b in found.items() if b != cls()}

    def covers(self, other: "LiteralBounds") -> bool:
        """Does every value satisfying ``other`` also satisfy ``self``?

        Conservative: an equality bound covers only an identical bound
        set, and a non-numeric equality point only an unbounded range.
        """
        if self.eq:
            # Any wider or narrower query bound must re-execute.
            return self == other
        if other.eq:
            return all(self._admits(value) for value in other.eq)
        return (
            self.low is None
            or (other.low is not None and _low_key(self.low) <= _low_key(other.low))
        ) and (
            self.high is None
            or (other.high is not None and self.high >= other.high)
        )

    def may_overlap(self, minimum: object, maximum: object) -> bool:
        """Can any value in ``[minimum, maximum]`` satisfy the bounds?

        False only when provably none can; non-numeric equality points
        are ignored (never prune on what cannot be ordered).
        """
        low, high = self._interval()
        return (
            _admits_low(low, maximum)
            and _admits_high(high, minimum)
            and (low is None or _admits_high(high, low[0]))
            and (high is None or _admits_low(low, high[0]))
        )

    def int_range(self) -> tuple[int | None, int | None]:
        """Closed ``[low, high]`` holding every integer that satisfies.

        Fractional edges are rounded inward (the low edge up, the high
        edge down); None is an open side and ``low > high`` admits no
        integer.  Non-numeric equality points and infinite or NaN edges
        are ignored, which only widens the range.
        """
        low, high = self._interval()
        int_low = int_high = None
        if low is not None and math.isfinite(low[0]):
            int_low = math.ceil(low[0]) if low[1] else math.floor(low[0]) + 1
        if high is not None and math.isfinite(high[0]):
            int_high = math.floor(high[0]) if high[1] else math.ceil(high[0]) - 1
        return int_low, int_high

    def points(self) -> set | None:
        """The values ``=`` conjuncts allow: None without any, empty when
        two disagree."""
        if not self.eq:
            return None
        return set(self.eq) if len(self.eq) == 1 else set()

    def _admits(self, value: object) -> bool:
        if not _is_numeric(value):
            return self.low is None and self.high is None
        return _admits_low(self.low, value) and _admits_high(self.high, value)

    def _interval(self) -> tuple[tuple | None, tuple | None]:
        """The range edges tightened by every numeric equality point."""
        low, high = self.low, self.high
        for value in self.eq:
            if _is_numeric(value):
                point = (value, True)
                low = point if low is None else max(low, point, key=_low_key)
                high = point if high is None else min(high, point)
        return low, high
