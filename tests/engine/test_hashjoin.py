"""Tests for the vectorized equi-join kernels, checked against a
nested-loop oracle and, pair for pair and in order, against the reference
kernel below (hypothesis properties)."""

import math

import numpy as np
from hypothesis import given, strategies as st

from repro.engine.column import Column
from repro.engine.hashjoin import (
    composite_codes_pair,
    equi_join_pairs,
    factorize_pair,
)
from repro.engine.types import FLOAT64, INT64, STRING


def reference_factorize(left, right):
    """The factorization the join kernel replaced: one code space over
    both sides, from ``np.unique`` of their concatenation."""
    if left.dtype == object or right.dtype == object:
        mapping = {}
        left_codes = np.asarray(
            [mapping.setdefault(v, len(mapping)) for v in left], dtype=np.int64
        )
        right_codes = np.asarray(
            [mapping.setdefault(v, len(mapping)) for v in right], dtype=np.int64
        )
        return left_codes, right_codes, max(len(mapping), 1)
    uniques, inverse = np.unique(
        np.concatenate([left, right]), return_inverse=True
    )
    inverse = inverse.astype(np.int64)
    return inverse[: len(left)], inverse[len(left) :], max(len(uniques), 1)


def reference_join(left_columns, right_columns):
    """The join kernel this module replaced: reference factorization, then
    the smaller side sorted and every probe's matches expanded with
    repeat/cumsum — probe-row order, then stable build order."""
    left_codes = np.zeros(len(left_columns[0]), dtype=np.int64)
    right_codes = np.zeros(len(right_columns[0]), dtype=np.int64)
    for left_values, right_values in zip(left_columns, right_columns):
        l_part, r_part, cardinality = reference_factorize(left_values, right_values)
        left_codes = left_codes * cardinality + l_part
        right_codes = right_codes * cardinality + r_part
    build_is_left = len(left_codes) <= len(right_codes)
    build, probe = (
        (left_codes, right_codes) if build_is_left else (right_codes, left_codes)
    )
    order = np.argsort(build, kind="stable")
    sorted_build = build[order]
    lo = np.searchsorted(sorted_build, probe, side="left")
    counts = np.searchsorted(sorted_build, probe, side="right") - lo
    if int(counts.sum()) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    probe_rows = np.repeat(np.arange(len(probe), dtype=np.int64), counts)
    run_starts = np.concatenate(([0], np.cumsum(counts)[:-1])).astype(np.int64)
    within = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(
        run_starts, counts
    )
    build_rows = order[np.repeat(lo, counts) + within]
    if build_is_left:
        return build_rows, probe_rows
    return probe_rows, build_rows


def oracle_pairs(left, right):
    return sorted(
        (i, j)
        for i, lv in enumerate(left)
        for j, rv in enumerate(right)
        if lv == rv
    )


class TestFactorizePair:
    def test_consistent_codes_ints(self):
        left = np.asarray([5, 7, 5])
        right = np.asarray([7, 9])
        l_codes, r_codes, _ = factorize_pair(left, right)
        assert l_codes[1] == r_codes[0]  # both are value 7
        assert l_codes[0] == l_codes[2]

    def test_consistent_codes_strings(self):
        left = np.asarray(["a", "b"], dtype=object)
        right = np.asarray(["b", "c"], dtype=object)
        l_codes, r_codes, card = factorize_pair(left, right)
        assert l_codes[1] == r_codes[0]
        assert card == 3

    def test_empty_sides(self):
        l_codes, r_codes, _ = factorize_pair(
            np.asarray([], dtype=np.int64), np.asarray([1, 2])
        )
        assert len(l_codes) == 0 and len(r_codes) == 2


class TestEquiJoinPairs:
    def test_one_to_one(self):
        left = np.asarray([1, 2, 3])
        right = np.asarray([3, 1])
        l_codes, r_codes, _ = factorize_pair(left, right)
        l_rows, r_rows = equi_join_pairs(l_codes, r_codes)
        assert sorted(zip(l_rows, r_rows)) == [(0, 1), (2, 0)]

    def test_many_to_many(self):
        left = np.asarray([1, 1])
        right = np.asarray([1, 1, 1])
        l_codes, r_codes, _ = factorize_pair(left, right)
        l_rows, r_rows = equi_join_pairs(l_codes, r_codes)
        assert len(l_rows) == 6

    def test_no_matches(self):
        l_codes, r_codes, _ = factorize_pair(
            np.asarray([1, 2]), np.asarray([3, 4])
        )
        l_rows, r_rows = equi_join_pairs(l_codes, r_codes)
        assert len(l_rows) == 0 and len(r_rows) == 0

    def test_build_side_choice_irrelevant(self):
        # larger left than right and vice versa must agree
        left = np.asarray([1, 2, 2, 3, 4])
        right = np.asarray([2, 4])
        l_codes, r_codes, _ = factorize_pair(left, right)
        a = sorted(zip(*equi_join_pairs(l_codes, r_codes)))
        b_r, b_l = equi_join_pairs(r_codes, l_codes)
        b = sorted(zip(b_l, b_r))
        assert a == b == oracle_pairs(left, right)


class TestCompositeCodes:
    def test_multi_column_keys(self):
        left = [
            Column.from_values(INT64, [1, 1, 2]),
            Column.from_values(STRING, ["a", "b", "a"]),
        ]
        right = [
            Column.from_values(INT64, [1, 2]),
            Column.from_values(STRING, ["b", "a"]),
        ]
        l_codes, r_codes = composite_codes_pair(left, right)
        l_rows, r_rows = equi_join_pairs(l_codes, r_codes)
        assert sorted(zip(l_rows, r_rows)) == [(1, 0), (2, 1)]

    def test_no_false_matches_across_columns(self):
        # (1, "2") must not match (12, "") style collisions
        left = [
            Column.from_values(INT64, [1]),
            Column.from_values(INT64, [23]),
        ]
        right = [
            Column.from_values(INT64, [12]),
            Column.from_values(INT64, [3]),
        ]
        l_codes, r_codes = composite_codes_pair(left, right)
        l_rows, _ = equi_join_pairs(l_codes, r_codes)
        assert len(l_rows) == 0


@given(
    st.lists(st.integers(0, 8), max_size=40),
    st.lists(st.integers(0, 8), max_size=40),
)
def test_join_matches_nested_loop_oracle(left_vals, right_vals):
    left = np.asarray(left_vals, dtype=np.int64)
    right = np.asarray(right_vals, dtype=np.int64)
    l_codes, r_codes, _ = factorize_pair(left, right)
    l_rows, r_rows = equi_join_pairs(l_codes, r_codes)
    assert sorted(zip(l_rows, r_rows)) == oracle_pairs(left, right)


@given(
    st.lists(st.sampled_from(["a", "b", "c"]), max_size=25),
    st.lists(st.sampled_from(["b", "c", "d"]), max_size=25),
)
def test_string_join_matches_oracle(left_vals, right_vals):
    left = np.asarray(left_vals, dtype=object)
    right = np.asarray(right_vals, dtype=object)
    l_codes, r_codes, _ = factorize_pair(left, right)
    l_rows, r_rows = equi_join_pairs(l_codes, r_codes)
    assert sorted(zip(l_rows, r_rows)) == oracle_pairs(left_vals, right_vals)


# -- exact pairs, in order, against the reference kernel ---------------------

NAN = float("nan")
KEY_VALUES = {
    "int": st.integers(0, 6),
    "float": st.sampled_from([0.0, 1.5, -2.0, 3.25, NAN]),
    "object": st.sampled_from(["a", "b", "c", "d", "e"]),
}


def _distinct_key(row):
    return tuple("nan" if isinstance(v, float) and math.isnan(v) else v for v in row)


@st.composite
def join_inputs(draw):
    """1–3 key columns of int, float (NaN included) or object keys, with
    duplicates on either side, or one side distinct, and empty sides."""
    kinds = draw(st.lists(st.sampled_from(sorted(KEY_VALUES)), min_size=1, max_size=3))
    row = st.tuples(*[KEY_VALUES[kind] for kind in kinds])
    distinct = draw(st.sampled_from(["none", "left", "right"]))
    sides = []
    for side in ("left", "right"):
        rows = draw(
            st.lists(
                row,
                max_size=30,
                unique_by=_distinct_key if distinct == side else None,
            )
        )
        sides.append(
            [
                np.asarray(
                    [r[i] for r in rows],
                    dtype={"int": np.int64, "float": np.float64, "object": object}[
                        kind
                    ],
                )
                for i, kind in enumerate(kinds)
            ]
        )
    return sides


def _kernel_pairs(left_columns, right_columns):
    left_codes, right_codes = composite_codes_pair(
        [Column.from_values(_type_of(v), list(v)) for v in left_columns],
        [Column.from_values(_type_of(v), list(v)) for v in right_columns],
    )
    return equi_join_pairs(left_codes, right_codes)


def _type_of(values):
    return {np.dtype(np.int64): INT64, np.dtype(np.float64): FLOAT64}.get(
        values.dtype, STRING
    )


@given(join_inputs())
def test_join_pairs_equal_reference_kernel_in_order(sides):
    """Exact (left_rows, right_rows) arrays: same pairs in the same order.

    Aggregates sum in join-output order, so a kernel that permuted its
    pairs would change float results; sorted comparisons cannot see that.
    """
    left_columns, right_columns = sides
    left_rows, right_rows = _kernel_pairs(left_columns, right_columns)
    ref_left, ref_right = reference_join(left_columns, right_columns)
    assert left_rows.tolist() == ref_left.tolist()
    assert right_rows.tolist() == ref_right.tolist()


@given(
    st.lists(st.integers(0, 12), max_size=10, unique=True),
    st.lists(st.integers(0, 16), max_size=60),
)
def test_distinct_build_side_equals_reference_kernel(small_vals, large_vals):
    """The stage-two shape: a distinct small side probed by a large side
    holding values the small side lacks."""
    small = [np.asarray(small_vals, dtype=np.int64)]
    large = [np.asarray(large_vals, dtype=np.int64)]
    for left, right in ((small, large), (large, small)):
        rows = _kernel_pairs(left, right)
        reference = reference_join(left, right)
        assert rows[0].tolist() == reference[0].tolist()
        assert rows[1].tolist() == reference[1].tolist()


def test_nan_keys_join_each_other():
    left = np.asarray([NAN, 1.0, NAN])
    right = np.asarray([2.0, NAN, 1.0, 5.0])
    l_codes, r_codes, _ = factorize_pair(left, right)
    l_rows, r_rows = equi_join_pairs(l_codes, r_codes)
    # Left is the build side: probe (right) order, then build order.
    assert list(zip(l_rows.tolist(), r_rows.tolist())) == [(0, 1), (2, 1), (1, 2)]
