"""Statistics-driven chunk pruning + workload prefetch: the ablation sweep.

Two experiments motivated by the chunk-planner work:

* **selectivity** — a value-predicate aggregate over ``dataview`` whose
  threshold is swept across the per-chunk maxima quantiles, so the chunk
  selectivity steps through ~100%, 50%, 25%, 12.5%.  Stage one cannot
  narrow value predicates (they touch no metadata), so the unpruned
  baseline fetches every chunk; the planner prunes chunks whose enriched
  min/max statistics exclude the threshold.  Swept across serving tier
  (``remote``: both recycler tiers cold with the paper's 5 ms/chunk
  modeled fetch; ``disk``: memory tier cold, chunks mmap-re-hydrate;
  ``memory``: fully warm) × executor (serial / thread pipeline), pruning
  on vs off.  **Every pruned result is compared against its unpruned
  twin; any mismatch fails the process — this is the CI correctness
  gate.**
* **prefetch** — a client walking forward through time day by day
  (the serving pattern the sommelier predicts), with a think-time gap
  between queries.  With ``prefetch=True`` the facade warms each
  session's next chunk during the gap, so the follow-up query finds it
  resident.  The off arm is default ``TwoStageOptions()``, so the leg
  measures prefetch alone, not prefetch plus pruning.

Usage::

    PYTHONPATH=src python benchmarks/bench_pruning.py --sf 3 --scale small
    PYTHONPATH=src python benchmarks/bench_pruning.py --smoke
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
import time

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
SELECTIVITY_TARGETS = (1.0, 0.5, 0.25, 0.125)


def value_query(threshold: int) -> str:
    return (
        "SELECT COUNT(*) AS n, AVG(D.sample_value) AS mean, "
        "MAX(D.sample_value) AS peak "
        "FROM dataview "
        f"WHERE D.sample_value >= {threshold}"
    )


PRIME_SQL = "SELECT COUNT(*) AS n FROM dataview"


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


def thresholds_by_selectivity(db) -> list[tuple[float, int]]:
    """(target selectivity, value threshold) pairs from enriched stats."""
    maxima = sorted(
        entry.ranges["D.sample_value"][1]
        for entry in db.database.chunk_stats.snapshot().values()
    )
    total = len(maxima)
    pairs = []
    for target in SELECTIVITY_TARGETS:
        index = max(0, total - max(1, math.ceil(target * total)))
        pairs.append((target, int(maxima[index])))
    return pairs


def reset_tier(db, tier: str) -> None:
    """Put the recycler into the tier's starting state for one measurement.

    The previous measurement left an arbitrary subset warm, so each tier
    re-establishes its invariant: ``remote`` = both tiers cold, ``disk`` =
    every chunk committed on disk but none in memory, ``memory`` = every
    chunk resident.
    """
    if tier == "remote":
        db.database.recycler.clear(spilled=True)
        return
    db.query(PRIME_SQL)  # pull every chunk into the memory tier
    if tier == "disk":
        db.database.recycler.flush_to_store()
        db.database.recycler.clear(spilled=False)


def run_selectivity(args, repository, table) -> tuple[bool, dict]:
    """The pruning ablation; returns (results_identical, headline info)."""
    identical = True
    headline: dict = {}
    executors = [("serial", 1), ("thread", args.io_threads)]
    with tempfile.TemporaryDirectory(prefix="repro-bench-prune-") as scratch:
        for mode_index, (mode, io_threads) in enumerate(executors):
            for prune in (False, True):
                workdir = os.path.join(scratch, f"sel-{mode_index}-{prune}")
                db, _ = prepare(
                    "lazy", repository, workdir=workdir,
                    options=TwoStageOptions(
                        io_threads=io_threads, prune_chunks=prune
                    ),
                )
                db.database.chunk_loader.io_delay_ms = args.fetch_latency_ms
                db.query(PRIME_SQL)  # enrich every chunk's statistics
                pairs = thresholds_by_selectivity(db)
                for tier in ("remote", "disk", "memory"):
                    for target, threshold in pairs:
                        reset_tier(db, tier)
                        result = db.query(value_query(threshold))
                        survivors = len(result.rewrite.required_uris) - (
                            result.stats.chunks_pruned
                        )
                        selectivity = survivors / max(
                            1, len(result.rewrite.required_uris)
                        )
                        key = (mode, tier, target)
                        row = {
                            "stage2_s": result.stage_two_seconds,
                            "rows": result.table,
                            "pruned": result.stats.chunks_pruned,
                            "loaded": result.stats.chunks_loaded,
                            "rehydrated": result.stats.chunks_rehydrated,
                            "selectivity": selectivity,
                        }
                        if not prune:
                            headline[key] = {"off": row}
                            continue
                        baseline = headline[key]["off"]
                        identical &= same_rows(baseline["rows"], result.table)
                        speedup = baseline["stage2_s"] / max(
                            row["stage2_s"], 1e-9
                        )
                        headline[key]["on"] = row
                        headline[key]["speedup"] = speedup
                        table.add_row(
                            "selectivity", mode, tier,
                            round(selectivity, 3), threshold,
                            row["pruned"], row["loaded"], row["rehydrated"],
                            round(baseline["stage2_s"], 4),
                            round(row["stage2_s"], 4),
                            round(speedup, 2),
                        )
                db.close()
    return identical, headline


def walk_queries(days: int) -> list[list[str]]:
    """Per-station day-by-day walks (one sequential session each)."""
    walks = []
    for station, channel in STATIONS:
        walk = []
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
        walks.append(walk)
    return walks


def run_prefetch(args, repository, stats, table) -> bool:
    """The prefetch ablation; returns results_identical."""
    days = stats.num_files // len(STATIONS)
    walks = walk_queries(days)
    identical = True
    reference: list | None = None
    base_latency = 0.0
    with tempfile.TemporaryDirectory(prefix="repro-bench-prefetch-") as scratch:
        for enabled in (False, True):
            db, _ = prepare(
                "lazy", repository,
                workdir=os.path.join(scratch, f"walk-{enabled}"),
                options=TwoStageOptions(prefetch=enabled),
            )
            db.database.chunk_loader.io_delay_ms = args.fetch_latency_ms
            tables = []
            latency = 0.0
            loaded = prefetched = 0
            started = time.perf_counter()
            for client, walk in enumerate(walks, start=1):
                # Each walk is its own client: its own prefetch history.
                for sql in walk:
                    result, _ = db.query_with_derivation(
                        sql, session_id=client
                    )
                    latency += result.seconds
                    loaded += result.stats.chunks_loaded
                    prefetched += result.stats.chunks_prefetched
                    tables.append(result.table)
                    time.sleep(args.think_ms / 1000.0)
            wall = time.perf_counter() - started
            if db.prefetcher is not None:
                db.prefetcher.wait_idle()
            db.close()
            if reference is None:
                reference = tables
                base_latency = latency
            else:
                identical &= len(tables) == len(reference) and all(
                    same_rows(a, b) for a, b in zip(reference, tables)
                )
            table.add_row(
                "prefetch", "on" if enabled else "off",
                "remote" if args.fetch_latency_ms else "local",
                "", args.think_ms, "", loaded, prefetched,
                round(base_latency, 4), round(latency, 4),
                round(base_latency / max(latency, 1e-9), 2),
            )
    return identical


def run(args: argparse.Namespace) -> tuple[ReportTable, bool]:
    repository, stats = build_or_reuse(
        args.base, args.sf, SCALES[args.scale], fiam_only=False
    )
    table = ReportTable(
        title=(
            f"Chunk pruning + prefetch ablation (sf-{args.sf} {args.scale}, "
            f"{stats.num_files} chunks, {stats.num_samples:,} samples, "
            f"{args.fetch_latency_ms:g}ms modeled fetch)"
        ),
        headers=[
            "experiment", "mode", "tier", "selectivity", "threshold",
            "pruned", "loaded", "rehydrated", "off_s", "on_s", "speedup",
        ],
    )
    identical, headline = run_selectivity(args, repository, table)
    identical &= run_prefetch(args, repository, stats, table)

    best = [
        (key, info["speedup"])
        for key, info in headline.items()
        if key[1] == "remote"
        and "speedup" in info
        and info["on"]["selectivity"] <= 0.25
    ]
    if best:
        top = max(best, key=lambda kv: kv[1])
        table.add_note(
            "headline: remote-regime stage two at "
            f"{headline[top[0]]['on']['selectivity']:.0%} chunk selectivity "
            f"is {top[1]:.2f}x faster with pruning on "
            f"(executor={top[0][0]})"
        )
    table.add_note(
        "selectivity: threshold swept over per-chunk max quantiles; off_s/"
        "on_s are stage-two seconds with pruning off/on at identical tier "
        "state; value predicates are invisible to stage one, so the off "
        "baseline fetches every chunk"
    )
    table.add_note(
        "prefetch: day-by-day session walks with think time between "
        "queries; on = prefetch=True, off = default TwoStageOptions(); "
        "off_s/on_s are summed query latencies (think time excluded)"
    )
    table.add_note(
        f"results_identical={'yes' if identical else 'NO'} "
        "(pruned/prefetched vs baseline, every configuration)"
    )
    return table, identical


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="pruning ablation (selectivity × tier × executor)"
    )
    parser.add_argument("--io-threads", type=int, default=4)
    parser.add_argument("--sf", type=int, default=3, choices=(1, 3, 9, 27))
    parser.add_argument("--scale", default="small", choices=sorted(SCALES))
    parser.add_argument(
        "--fetch-latency-ms", type=float, default=5.0,
        help="modeled remote-repository fetch latency per chunk",
    )
    parser.add_argument(
        "--think-ms", type=float, default=10.0,
        help="client think time between a session's queries (prefetch "
        "experiment)",
    )
    parser.add_argument(
        "--base",
        default=os.path.join(tempfile.gettempdir(), "repro-bench-data"),
        help="dataset cache directory",
    )
    parser.add_argument(
        "--out", default="pruning.json", help="JSON artifact filename"
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

    table, identical = run(args)
    text_path = table.emit("pruning.txt")
    json_path = table.save_json(args.out)
    print(f"\nsaved to {text_path} and {json_path}")
    if not identical:
        print("CORRECTNESS GATE FAILED: pruned results differ from baseline")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
