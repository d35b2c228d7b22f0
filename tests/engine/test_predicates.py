"""Properties of the shared literal-bounds type against an oracle.

The oracle never touches :class:`LiteralBounds`: it evaluates each drawn
``x op literal`` conjunct with ``Comparison.evaluate`` on a grid of
quarter points, which holds every integer, half and quarter in
``[-7, 7]`` — wider than the drawn literals' range, so unbounded sides
show too.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.engine.column import Column
from repro.engine.expressions import ColumnRef, Comparison, Literal
from repro.engine.predicates import LiteralBounds
from repro.engine.table import Schema, Table
from repro.engine.types import FLOAT64

GRID = np.arange(-28, 29) / 4
INTEGERS = GRID == np.round(GRID)
TABLE = Table(Schema.of(("x", FLOAT64)), [Column(FLOAT64, GRID)])

# Integers, halves and integral floats (1.0), mixed within one draw; few
# enough that two conjuncts often share an edge value.
values = st.sampled_from([-2, -1.5, -1, -0.5, 0, 0.0, 0.5, 1, 1.0, 1.5, 2])
conjunct_lists = st.lists(
    st.tuples(st.sampled_from(["<", "<=", ">", ">=", "="]), values),
    max_size=3,
)
grid_points = st.integers(-24, 24).map(lambda k: k / 4)
FLIP = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "=": "="}


@st.composite
def cached_and_query(draw):
    """Two conjunct lists that often share an edge: the query keeps some
    cached conjuncts, flips the inclusivity of some and adds its own."""
    cached = draw(conjunct_lists)
    kept = [
        (FLIP[op] if draw(st.booleans()) else op, value)
        for op, value in cached
        if draw(st.booleans())
    ]
    return cached, kept + draw(conjunct_lists)


def satisfying(ops) -> np.ndarray:
    mask = np.ones(len(GRID), dtype=bool)
    for op, value in ops:
        mask &= Comparison(op, ColumnRef("x"), Literal(value)).evaluate(TABLE)
    return mask


@settings(deadline=None, max_examples=300)
@given(pair=cached_and_query())
def test_covers_implies_subset(pair):
    cached, query = pair
    if LiteralBounds.from_conjuncts(cached).covers(
        LiteralBounds.from_conjuncts(query)
    ):
        assert not (satisfying(query) & ~satisfying(cached)).any()


@settings(deadline=None, max_examples=300)
@given(ops=conjunct_lists, ends=st.tuples(grid_points, grid_points))
def test_may_overlap_is_exact_on_the_grid(ops, ends):
    minimum, maximum = sorted(ends)
    inside = (GRID >= minimum) & (GRID <= maximum)
    expected = bool((satisfying(ops) & inside).any())
    assert LiteralBounds.from_conjuncts(ops).may_overlap(minimum, maximum) == (
        expected
    )


@settings(deadline=None, max_examples=300)
@given(ops=conjunct_lists)
def test_int_range_holds_exactly_the_satisfying_integers(ops):
    low, high = LiteralBounds.from_conjuncts(ops).int_range()
    in_range = INTEGERS.copy()
    if low is not None:
        in_range &= GRID >= low
    if high is not None:
        in_range &= GRID <= high
    assert np.array_equal(in_range, satisfying(ops) & INTEGERS)


@given(ops=conjunct_lists, data=st.data())
def test_reordered_or_redundant_conjuncts_give_equal_bounds(ops, data):
    bounds = LiteralBounds.from_conjuncts(ops)
    assert LiteralBounds.from_conjuncts(data.draw(st.permutations(ops))) == bounds
    assert LiteralBounds.from_conjuncts(ops + ops[:1]) == bounds
    assert bounds.covers(bounds)
