"""Order statistics, run-to-run spread and host identification."""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Sequence

import numpy as np

__all__ = [
    "MIN_BEYOND",
    "calibration_seconds",
    "host_metadata",
    "percentile",
    "spread_summary",
]

# A percentile is reported only when at least this many samples lie
# beyond it (choosing-metrics guide, section 1).
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float,
               min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank ``q``-quantile (0 < q < 1) of ``values``.

    Refuses — ``ValueError`` — when fewer than ``min_beyond`` samples lie
    beyond the returned one: such a tail percentile is the position of a
    handful of outliers, not a property of the distribution.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile {q!r} is not inside (0, 1)")
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    beyond = len(ordered) - rank
    if rank < 1 or beyond < min_beyond:
        raise ValueError(
            f"p{q * 100:g} of {len(ordered)} samples has {max(beyond, 0)} "
            f"beyond it; need at least {min_beyond}"
        )
    return ordered[rank - 1]


def spread_summary(values: Sequence[float], bound: float | None) -> dict:
    """Median, quartiles and interquartile spread of repeated runs.

    ``spread`` is the quartile distance as a share of the median — the
    quantity the contract holds against ``bound``.  A metric whose spread
    exceeds its bound cannot show a regression of that size, so it is
    labelled ``unresolved`` rather than ``steady``.
    """
    median = statistics.median(values)
    summary: dict = {"runs": len(values), "median": median}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else math.inf
        summary.update(q1=q1, q3=q3, spread=spread)
        if bound is not None:
            summary["spread_over_bound"] = spread / bound
            summary["label"] = "unresolved" if spread > bound else "steady"
    return summary


def calibration_seconds() -> float:
    """Time of a fixed pure-Python + numpy spin, best of three.

    Rows taken on different hosts (or on one host under different load)
    can be told apart by this number without trusting the clock speed a
    platform string implies.
    """
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        data = np.arange(1_000_000, dtype=np.int64)
        for _ in range(5):
            total += int(np.cumsum(data * 3 % 11)[-1])
        best = min(best, time.perf_counter() - started)
    return best


def _commit(repo_root: str) -> str:
    # The ceiling keeps git from adopting a repository above the checkout
    # when the checkout itself is an exported tree.
    env = {**os.environ,
           "GIT_CEILING_DIRECTORIES": os.path.dirname(repo_root)}
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=repo_root, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_metadata(repo_root: str) -> dict:
    """What distinguishes this host and build in a results row."""
    from repro.mseed import steim_kernels

    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "steim_kernel": steim_kernels.active_kernel(),
        "commit": _commit(repo_root),
        "calibration_s": calibration_seconds(),
    }
