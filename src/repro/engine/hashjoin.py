"""Vectorized equi-join kernels.

The engine's hash join is implemented sort-based under the hood: both key
sides are *factorized* into int64 codes drawn from the smaller side's
distinct values (consistently across sides), the build side is sorted, and
probes find their match ranges with binary search.  Nothing sorts the
larger side, so a join costs O(n log m) in its larger input n and smaller
input m.  All multi-match expansion happens with NumPy primitives, so joining
a multi-million-row actual-data table against metadata never loops in
Python — the property that keeps our substrate faithful to MonetDB's bulk
processing model.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from .column import Column
from .errors import ExecutionError

__all__ = ["factorize_pair", "composite_codes_pair", "equi_join_pairs"]


def factorize_pair(
    left: np.ndarray, right: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Encode two key arrays into consistent codes from the smaller side.

    Returns ``(left_codes, right_codes, cardinality)``.  The smaller side's
    ``k`` distinct values get the dense codes ``0 .. k-1``, found by one
    ``np.unique`` of that side; the larger side looks its values up with
    ``searchsorted`` (O(n log k), never sorting the larger side).  A
    larger-side value the smaller side lacks gets code ``k``, which the
    smaller side never carries, so it matches nothing; ``cardinality`` is
    ``k + 1``.  Equal values get equal codes across sides, NaN included:
    ``np.unique`` folds NaN keys into one code, so NaN joins NaN.
    """
    small_is_left = len(left) <= len(right)
    small, large = (left, right) if small_is_left else (right, left)
    if small.dtype == object or large.dtype == object:
        mapping: dict[Any, int] = {}
        small_codes = np.fromiter(
            (mapping.setdefault(value, len(mapping)) for value in small),
            dtype=np.int64,
            count=len(small),
        )
        absent = len(mapping)
        large_codes = np.fromiter(
            (mapping.get(value, absent) for value in large),
            dtype=np.int64,
            count=len(large),
        )
    else:
        uniques, small_codes = np.unique(small, return_inverse=True)
        small_codes = small_codes.astype(np.int64, copy=False)
        absent = len(uniques)
        if absent:
            positions = np.searchsorted(uniques, large)
            # A value past the last unique is absent whatever it meets here.
            np.minimum(positions, absent - 1, out=positions)
            candidates = uniques[positions]
            found = candidates == large
            if uniques.dtype.kind in "fc":
                found |= np.isnan(candidates) & np.isnan(large)
            large_codes = np.where(found, positions, absent).astype(
                np.int64, copy=False
            )
        else:
            large_codes = np.full(len(large), absent, dtype=np.int64)
    if small_is_left:
        return small_codes, large_codes, absent + 1
    return large_codes, small_codes, absent + 1


def composite_codes_pair(
    left_columns: Sequence[Column], right_columns: Sequence[Column]
) -> tuple[np.ndarray, np.ndarray]:
    """Consistently encode multi-column keys on both join sides."""
    if len(left_columns) != len(right_columns):
        raise ExecutionError("join key arity mismatch")
    if not left_columns:
        raise ExecutionError("equi join requires at least one key pair")
    left_codes, right_codes, _ = factorize_pair(
        left_columns[0].values, right_columns[0].values
    )
    for left_col, right_col in zip(left_columns[1:], right_columns[1:]):
        l_part, r_part, cardinality = factorize_pair(
            left_col.values, right_col.values
        )
        left_codes = left_codes * np.int64(cardinality) + l_part
        right_codes = right_codes * np.int64(cardinality) + r_part
    return left_codes, right_codes


def equi_join_pairs(
    left_codes: np.ndarray, right_codes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """All (left_row, right_row) index pairs with equal codes.

    The smaller side is sorted (the "build" side); the larger side probes
    with ``searchsorted``.  Pairs come in probe-row order, then in build-row
    order — aggregates sum in join-output order, so this order is part of
    the contract.  When no build code repeats (a join against a key, like
    every stage-two join against one row per segment) each probe row
    matches at most once and the pairs are the hits of one binary search;
    otherwise multi-match expansion uses repeat/cumsum only.
    """
    if len(left_codes) <= len(right_codes):
        build_codes, probe_codes = left_codes, right_codes
        build_is_left = True
    else:
        build_codes, probe_codes = right_codes, left_codes
        build_is_left = False

    empty = np.empty(0, dtype=np.int64)
    if len(build_codes) == 0:
        return empty, empty.copy()
    order = np.argsort(build_codes, kind="stable")
    sorted_build = build_codes[order]
    lo = np.searchsorted(sorted_build, probe_codes, side="left")
    if np.all(sorted_build[1:] != sorted_build[:-1]):
        hit = sorted_build[np.minimum(lo, len(sorted_build) - 1)] == probe_codes
        probe_rows = np.flatnonzero(hit)
        build_rows = order[lo[probe_rows]]
    else:
        hi = np.searchsorted(sorted_build, probe_codes, side="right")
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            return empty, empty.copy()
        probe_rows = np.repeat(
            np.arange(len(probe_codes), dtype=np.int64), counts
        )
        # Build-side offsets: for each expanded slot, its position in the
        # sorted build array = lo[probe_row] + (slot index within that
        # probe's run).
        starts = np.repeat(lo, counts)
        run_start_positions = np.concatenate(([0], np.cumsum(counts)[:-1]))
        within = np.arange(total, dtype=np.int64) - np.repeat(
            run_start_positions, counts
        )
        build_rows = order[starts + within]

    if build_is_left:
        return build_rows, probe_rows
    return probe_rows, build_rows
