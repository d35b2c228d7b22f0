"""Semantic result recycling: the repeated-workload sweep.

Two serving patterns motivated by the result-recycler work, in the
remote regime (modeled per-chunk fetch latency, recycler cleared between
measured queries — the server whose chunk cache is under pressure while
the same dashboards keep asking the same questions):

* **day-walk** — every station's client walks its days with the T4
  aggregate, then the whole walk repeats (the dashboard refresh).  With
  the result cache on, every repeat is an *exact* fingerprint hit that
  skips both execution stages; the uncached twin re-runs stage one and
  re-fetches every chunk.
* **zoom-in** — per station, one broad row query over the full first day,
  then progressively narrower windows (half, quarter, eighth).  With the
  cache on, every zoom is answered by *subsumption*: the broad cached
  result is re-filtered, no chunk is touched.  Zoom queries never repeat
  exactly, so the cache-off arm is also what an exact-repeat-only cache
  would do.  The zoom-in runs twice: with the recycler cleared before
  every query, then again with the recycler left warm, where the off arm
  re-filters resident chunks instead of fetching them.

**Every cached/subsumed result is compared against its uncached twin; any
mismatch — or a cached run that silently failed to hit — fails the
process.  This is the CI correctness gate.**

Usage::

    PYTHONPATH=src python benchmarks/bench_result_cache.py --sf 3 --scale small
    PYTHONPATH=src python benchmarks/bench_result_cache.py --smoke
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.bench.reporting import ReportTable  # noqa: E402
from repro.core.loading import prepare  # noqa: E402
from repro.core.two_stage import TwoStageOptions  # noqa: E402
from repro.data import SCALE_SMALL, SCALE_TEST, build_or_reuse  # noqa: E402
from repro.data.ingv import EPOCH_2010_MS, MILLIS_PER_DAY  # noqa: E402
from repro.workloads.queries import QueryParams, t4_query  # noqa: E402

SCALES = {"test": SCALE_TEST, "small": SCALE_SMALL}
STATIONS = (("ISK", "BHE"), ("FIAM", "HHZ"), ("ARCI", "BHZ"), ("LATE", "BHN"))
ZOOM_FRACTIONS = (0.5, 0.25, 0.125)

ROW_SQL = (
    "SELECT D.sample_time AS t, D.sample_value AS v FROM dataview "
    "WHERE F.station = '{station}' AND F.channel = '{channel}' "
    "AND D.sample_time >= {lo} AND D.sample_time < {hi}"
)


def same_rows(a, b) -> bool:
    """NaN-tolerant row equality (empty-input AVG yields NaN on both sides)."""
    rows_a, rows_b = a.to_dicts(), b.to_dicts()
    if len(rows_a) != len(rows_b):
        return False
    for row_a, row_b in zip(rows_a, rows_b):
        if set(row_a) != set(row_b):
            return False
        for key in row_a:
            va, vb = row_a[key], row_b[key]
            if va != vb and not (va != va and vb != vb):
                return False
    return True


def day_walk_queries(days: int) -> list[str]:
    """The T4 day walk of every station, flattened in serving order."""
    walk = []
    for station, channel in STATIONS:
        for day in range(days):
            start = EPOCH_2010_MS + day * MILLIS_PER_DAY
            walk.append(
                t4_query(
                    QueryParams(
                        station=station, channel=channel,
                        start_ms=start, end_ms=start + MILLIS_PER_DAY,
                    )
                )
            )
    return walk


def zoom_queries() -> list[list[str]]:
    """Per station: one broad day-wide row query, then narrowing windows."""
    plans = []
    for station, channel in STATIONS:
        start = EPOCH_2010_MS
        steps = [
            ROW_SQL.format(
                station=station, channel=channel,
                lo=start, hi=start + MILLIS_PER_DAY,
            )
        ]
        for fraction in ZOOM_FRACTIONS:
            span = int(MILLIS_PER_DAY * fraction)
            lo = start + (MILLIS_PER_DAY - span) // 2  # zoom to the middle
            steps.append(
                ROW_SQL.format(
                    station=station, channel=channel, lo=lo, hi=lo + span
                )
            )
        plans.append(steps)
    return plans


def run_config(args, repository, days: int, enabled: bool, workdir: str):
    """One full workload pass; returns per-query tables and timings."""
    db, _ = prepare(
        "lazy", repository, workdir=workdir,
        options=TwoStageOptions(
            io_threads=args.io_threads,
            result_cache=enabled,
        ),
    )
    db.database.chunk_loader.io_delay_ms = args.fetch_latency_ms
    observations = {
        "walk_tables": [], "walk_first_s": 0.0, "walk_repeat_s": 0.0,
        "walk_outcomes": [], "zoom_tables": [], "zoom_broad_s": 0.0,
        "zoom_narrow_s": 0.0, "zoom_outcomes": [], "walk_chunks_loaded": 0,
        "zoom_chunks_loaded": 0, "zoom_warm_broad_s": 0.0,
        "zoom_warm_narrow_s": 0.0, "zoom_warm_chunks_loaded": 0,
    }
    try:
        walk = day_walk_queries(days)
        for round_no in range(args.repeats):
            # Remote regime: the chunk tiers are cold at the start of each
            # round; only the result cache (if any) persists across rounds.
            db.database.recycler.clear(spilled=True)
            elapsed = 0.0
            for sql in walk:
                result = db.query(sql)
                elapsed += result.seconds
                observations["walk_chunks_loaded"] += (
                    result.stats.chunks_loaded
                )
                observations["walk_tables"].append(result.table)
                if round_no > 0:
                    observations["walk_outcomes"].append(result.result_cache)
            key = "walk_first_s" if round_no == 0 else "walk_repeat_s"
            observations[key] += elapsed
        for steps in zoom_queries():
            for position, sql in enumerate(steps):
                db.database.recycler.clear(spilled=True)
                result = db.query(sql)
                observations["zoom_chunks_loaded"] += (
                    result.stats.chunks_loaded
                )
                observations["zoom_tables"].append(result.table)
                if position == 0:
                    observations["zoom_broad_s"] += result.seconds
                else:
                    observations["zoom_narrow_s"] += result.seconds
                    observations["zoom_outcomes"].append(result.result_cache)
        # The same zooms with the chunk tiers left alone: the broad query
        # leaves its chunks resident for the narrower ones.
        for steps in zoom_queries():
            for position, sql in enumerate(steps):
                result = db.query(sql)
                observations["zoom_warm_chunks_loaded"] += (
                    result.stats.chunks_loaded
                )
                observations["zoom_tables"].append(result.table)
                if position == 0:
                    observations["zoom_warm_broad_s"] += result.seconds
                else:
                    observations["zoom_warm_narrow_s"] += result.seconds
                    observations["zoom_outcomes"].append(result.result_cache)
        observations["cache_stats"] = (
            db.planner_stats().get("result_cache", {})
        )
    finally:
        db.close()
    return observations


def run(args: argparse.Namespace) -> tuple[ReportTable, bool]:
    repository, stats = build_or_reuse(
        args.base, args.sf, SCALES[args.scale], fiam_only=False
    )
    days = stats.num_files // len(STATIONS)
    table = ReportTable(
        title=(
            f"Semantic result recycling (sf-{args.sf} {args.scale}, "
            f"{stats.num_files} chunks, {args.repeats} walk rounds, "
            f"{args.fetch_latency_ms:g}ms modeled fetch, recycler cleared "
            "between measured queries except in zoom-in warm)"
        ),
        headers=[
            "experiment", "cache", "queries", "hits", "chunks_loaded",
            "first_s", "repeat_s", "speedup",
        ],
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-rescache-") as scratch:
        baseline = run_config(
            args, repository, days, False, os.path.join(scratch, "off")
        )
        cached = run_config(
            args, repository, days, True, os.path.join(scratch, "on")
        )

    identical = len(baseline["walk_tables"]) == len(cached["walk_tables"])
    identical &= len(baseline["zoom_tables"]) == len(cached["zoom_tables"])
    if identical:
        identical = all(
            same_rows(a, b)
            for a, b in zip(baseline["walk_tables"], cached["walk_tables"])
        ) and all(
            same_rows(a, b)
            for a, b in zip(baseline["zoom_tables"], cached["zoom_tables"])
        )
    # The functional gate: the cached run must actually have been served
    # by the recycler, or the timing comparison measures nothing.
    served_as_expected = all(
        outcome == "exact" for outcome in cached["walk_outcomes"]
    ) and all(
        outcome == "subsumed" for outcome in cached["zoom_outcomes"]
    )

    walk_queries_n = len(day_walk_queries(days))
    exact_speedup = baseline["walk_repeat_s"] / max(
        cached["walk_repeat_s"], 1e-9
    )
    zoom_speedup = baseline["zoom_narrow_s"] / max(
        cached["zoom_narrow_s"], 1e-9
    )
    warm_zoom_speedup = baseline["zoom_warm_narrow_s"] / max(
        cached["zoom_warm_narrow_s"], 1e-9
    )
    for label, observations, speedup in (
        ("day-walk", baseline, ""),
        ("day-walk", cached, round(exact_speedup, 2)),
    ):
        enabled = observations is cached
        table.add_row(
            label, "on" if enabled else "off",
            walk_queries_n * args.repeats,
            observations.get("cache_stats", {}).get("exact_hits", 0),
            observations["walk_chunks_loaded"],
            round(observations["walk_first_s"], 4),
            round(observations["walk_repeat_s"], 4),
            speedup,
        )
    for label, leg, observations, speedup in (
        ("zoom-in", "zoom", baseline, ""),
        ("zoom-in", "zoom", cached, round(zoom_speedup, 2)),
        ("zoom-in warm", "zoom_warm", baseline, ""),
        ("zoom-in warm", "zoom_warm", cached, round(warm_zoom_speedup, 2)),
    ):
        enabled = observations is cached
        table.add_row(
            label, "on" if enabled else "off",
            len(STATIONS) * (1 + len(ZOOM_FRACTIONS)),
            "" if leg == "zoom_warm" else
            observations.get("cache_stats", {}).get("subsumption_hits", 0),
            observations[f"{leg}_chunks_loaded"],
            round(observations[f"{leg}_broad_s"], 4),
            round(observations[f"{leg}_narrow_s"], 4),
            speedup,
        )
    table.add_note(
        f"headline: exact-repeat day walks {exact_speedup:.2f}x faster, "
        f"subsumed zoom-ins {zoom_speedup:.2f}x faster (recycler cleared) "
        f"and {warm_zoom_speedup:.2f}x faster (recycler warm) with the "
        "result recycler on"
    )
    table.add_note(
        "day-walk: first_s is the cold first round (both configurations "
        "pay it), repeat_s the summed later rounds; zoom-in: first_s is "
        "the broad queries, repeat_s the narrowing windows; hits counts "
        "both zoom legs"
    )
    table.add_note(
        "results_identical="
        f"{'yes' if identical else 'NO'}, "
        "served_as_expected="
        f"{'yes' if served_as_expected else 'NO'} "
        "(every cached/subsumed result vs uncached execution)"
    )
    return table, identical and served_as_expected


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="result-recycler repeated-workload sweep"
    )
    parser.add_argument("--io-threads", type=int, default=4)
    parser.add_argument("--sf", type=int, default=3, choices=(1, 3, 9, 27))
    parser.add_argument("--scale", default="small", choices=sorted(SCALES))
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="day-walk rounds (round 1 is the cold pass both configs pay)",
    )
    parser.add_argument(
        "--fetch-latency-ms", type=float, default=5.0,
        help="modeled remote-repository fetch latency per chunk",
    )
    parser.add_argument(
        "--base",
        default=os.path.join(tempfile.gettempdir(), "repro-bench-data"),
        help="dataset cache directory",
    )
    parser.add_argument(
        "--out", default="result_cache.json", help="JSON artifact filename"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny CI configuration (sf-1 test data)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.sf = 1
        args.scale = "test"
        args.io_threads = 2
        args.repeats = 2

    table, passed = run(args)
    text_path = table.emit("result_cache.txt")
    json_path = table.save_json(args.out)
    print(f"\nsaved to {text_path} and {json_path}")
    if not passed:
        print(
            "CORRECTNESS GATE FAILED: cached/subsumed results differ from "
            "uncached execution (or the cache failed to serve)"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
