"""Persistent recycler: restart and tier sweeps.

Two experiments motivated by the ROADMAP's "scale across restarts" item:

* **restart** — the same multi-chunk T4 queries against (a) a fresh
  database (cold: every chunk fetched and Steim-decoded), and (b) the
  same workdir reopened with ``SommelierDB.open`` after a checkpointing
  close (warm restart: every chunk mmap-re-hydrated from the on-disk
  chunk store, no fetch, no decode).  Run in two regimes: *local* (page-
  cache-warm files; the decode itself is the only cost) and *remote*
  (the paper's network-attached INGV archive, modeled by the loader's
  per-chunk fetch latency — the regime where restarts without the
  persistent tier hurt most).  Speedups compare stage-two seconds.
  Each warm-restart row also records the checkpoint's size
  (``catalog.json`` bytes) and the ``SommelierDB.open`` seconds;
* **clients-tier** — N client threads drain a T4 workload with the
  working set (a) in the memory tier and (b) only in the disk tier right
  after a restart, showing what a restarted server's first wave of
  traffic pays.

Every mode's query results are checked against serial execution; the
``results_identical`` note reports it.

Usage::

    PYTHONPATH=src python benchmarks/bench_persistence.py \
        --workers 1,2,4 --clients 1,2,4 --sf 3 --scale small
    PYTHONPATH=src python benchmarks/bench_persistence.py --smoke
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.bench.reporting import ReportTable  # noqa: E402
from repro.core.loading import prepare  # noqa: E402
from repro.core.sommelier import SommelierDB  # noqa: E402
from repro.core.two_stage import TwoStageOptions  # noqa: E402
from repro.data import SCALE_SMALL, SCALE_TEST, build_or_reuse  # noqa: E402
from repro.data.ingv import EPOCH_2010_MS, MILLIS_PER_DAY  # noqa: E402
from repro.workloads.queries import QueryParams, t4_query  # noqa: E402

SCALES = {"test": SCALE_TEST, "small": SCALE_SMALL}
STATIONS = (("ISK", "BHE"), ("FIAM", "HHZ"), ("ARCI", "BHZ"), ("LATE", "BHN"))


def station_queries(span) -> list[str]:
    """One whole-span T4 query per station (multi-chunk stage two each)."""
    return [
        t4_query(
            QueryParams(
                station=station,
                channel=channel,
                start_ms=span[0],
                end_ms=span[1],
            )
        )
        for station, channel in STATIONS
    ]


def run_queries(db, queries: list[str]):
    """Drain the query list; returns a result dict for one pass."""
    tables = []
    loaded = rehydrated = 0
    stage_two = 0.0
    started = time.perf_counter()
    for sql in queries:
        result = db.query(sql)
        loaded += result.stats.chunks_loaded
        rehydrated += result.stats.chunks_rehydrated
        stage_two += result.stage_two_seconds
        tables.append(result.table)
    return {
        "wall_s": time.perf_counter() - started,
        "stage2_s": stage_two,
        "loaded": loaded,
        "rehydrated": rehydrated,
        "tables": tables,
    }


def measure_restart(
    repository, queries: list[str], workdir: str, io_threads: int,
    fetch_latency_ms: float,
):
    """Cold run → checkpointing close → reopen → warm-restart run.

    ``fetch_latency_ms`` models the paper's remote repository (0 = local
    files).  The warm-restart pass never calls the loader, so it pays
    neither fetch nor decode.  Returns both passes, the checkpoint's
    ``catalog.json`` size in bytes and the seconds ``SommelierDB.open``
    took.
    """
    db, _ = prepare(
        "lazy", repository, workdir=workdir,
        options=TwoStageOptions(io_threads=io_threads),
    )
    db.database.chunk_loader.io_delay_ms = fetch_latency_ms
    cold = run_queries(db, queries)
    db.close()  # checkpoints: catalog pointers + warm tier flushed to disk
    catalog_bytes = os.path.getsize(os.path.join(workdir, "catalog.json"))

    started = time.perf_counter()
    db = SommelierDB.open(workdir, options=TwoStageOptions(io_threads=io_threads))
    open_s = time.perf_counter() - started
    warm = run_queries(db, queries)
    db.close()
    return cold, warm, catalog_bytes, open_s


def measure_clients(db, queries: list[str], clients: int) -> float:
    """Wall seconds for N client threads to drain the workload."""
    cursor = iter(queries)

    def drain() -> None:
        while True:
            try:
                sql = next(cursor)
            except StopIteration:
                return
            db.query(sql)

    started = time.perf_counter()
    if clients == 1:
        drain()
    else:
        with ThreadPoolExecutor(max_workers=clients) as executor:
            list(executor.map(lambda _: drain(), range(clients)))
    return time.perf_counter() - started


def run(args: argparse.Namespace) -> ReportTable:
    repository, stats = build_or_reuse(
        args.base, args.sf, SCALES[args.scale], fiam_only=False
    )
    days = stats.num_files // len(STATIONS)
    span = (EPOCH_2010_MS, EPOCH_2010_MS + days * MILLIS_PER_DAY)
    queries = station_queries(span)

    table = ReportTable(
        title=(
            f"Persistent recycler (sf-{args.sf} "
            f"{args.scale}, {stats.num_files} chunks, "
            f"{stats.num_samples:,} samples)"
        ),
        headers=[
            "experiment", "mode", "clients", "workers", "queries",
            "wall_s", "stage2_s", "loaded", "rehydrated", "speedup",
            "catalog_B", "open_s",
        ],
    )
    results_identical = True

    with tempfile.TemporaryDirectory(prefix="repro-bench-pers-") as scratch:
        # Serial reference results for the equivalence check.
        ref_db, _ = prepare(
            "lazy", repository,
            workdir=os.path.join(scratch, "ref"),
            options=TwoStageOptions(io_threads=1),
        )
        reference = run_queries(ref_db, queries)["tables"]
        ref_db.close()

        # -- warm restart vs cold re-decode, local and remote regimes ----
        regimes = [("local", 0.0), ("remote", args.fetch_latency_ms)]
        for regime, latency in regimes:
            for index, io_threads in enumerate(args.workers):
                workdir = os.path.join(scratch, f"restart-{regime}{index}")
                cold, warm, catalog_bytes, open_s = measure_restart(
                    repository, queries, workdir, io_threads, latency
                )
                results_identical &= (
                    cold["tables"] == reference and warm["tables"] == reference
                )
                table.add_row(
                    "restart", f"cold ({regime})", 1, io_threads,
                    len(queries), round(cold["wall_s"], 4),
                    round(cold["stage2_s"], 4), cold["loaded"],
                    cold["rehydrated"], 1.0, "-", "-",
                )
                table.add_row(
                    "restart", f"warm restart ({regime})", 1, io_threads,
                    len(queries), round(warm["wall_s"], 4),
                    round(warm["stage2_s"], 4), warm["loaded"],
                    warm["rehydrated"],
                    round(cold["stage2_s"] / max(warm["stage2_s"], 1e-9), 2),
                    catalog_bytes, round(open_s, 4),
                )

        # -- client sweep over memory vs disk tier ----------------------
        workdir = os.path.join(scratch, "tiers")
        db, _ = prepare(
            "lazy", repository, workdir=workdir,
            options=TwoStageOptions(io_threads=max(args.workers)),
        )
        for sql in queries:  # warm the memory tier + derived metadata
            db.query(sql)
        memory_baseline = None
        for clients in args.clients:
            wall = measure_clients(db, queries * args.rounds, clients)
            memory_baseline = memory_baseline or wall
            table.add_row(
                "clients-tier", "memory", clients, max(args.workers),
                len(queries) * args.rounds, round(wall, 4), 0.0, 0, 0,
                round(memory_baseline / wall, 2), "-", "-",
            )
        db.close()
        for clients in args.clients:
            # Reopen per client count: memory tier cold, disk tier warm.
            db = SommelierDB.open(
                workdir, options=TwoStageOptions(io_threads=max(args.workers))
            )
            wall = measure_clients(db, queries * args.rounds, clients)
            table.add_row(
                "clients-tier", "disk (restart)", clients, max(args.workers),
                len(queries) * args.rounds, round(wall, 4), 0.0, 0, 0,
                round(memory_baseline / wall, 2) if memory_baseline else 1.0,
                "-", "-",
            )
            db.close()

    table.add_note(
        "restart: warm restart re-hydrates mmap-backed chunks from the "
        "on-disk store (no fetch, no Steim decode); speedup is cold/warm "
        "stage-two seconds at equal io_threads; remote = "
        f"{args.fetch_latency_ms:g}ms modeled fetch per chunk; catalog_B "
        "is the checkpoint's catalog.json size, open_s the "
        "SommelierDB.open seconds before the warm pass"
    )
    table.add_note(
        "clients-tier: throughput right after a restart (disk tier only) "
        "vs a fully warm memory tier; speedup is vs memory @ first "
        "client count"
    )
    table.add_note(
        f"results_identical={'yes' if results_identical else 'NO'} "
        "(every mode vs serial execution)"
    )
    return table


def parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="persistence benchmark (restart × tier)"
    )
    parser.add_argument("--workers", type=parse_int_list, default=[1, 2, 4])
    parser.add_argument("--clients", type=parse_int_list, default=[1, 2, 4])
    parser.add_argument("--sf", type=int, default=3, choices=(1, 3, 9, 27))
    parser.add_argument("--scale", default="small", choices=sorted(SCALES))
    parser.add_argument(
        "--rounds", type=int, default=2,
        help="workload repetitions per client sweep",
    )
    parser.add_argument(
        "--fetch-latency-ms", type=float, default=5.0,
        help="modeled remote-repository fetch latency per chunk "
        "(restart experiment, remote regime)",
    )
    parser.add_argument(
        "--base",
        default=os.path.join(tempfile.gettempdir(), "repro-bench-data"),
        help="dataset cache directory",
    )
    parser.add_argument(
        "--out", default="persistence.json", help="JSON artifact filename"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny CI configuration (sf-1 test data, short sweeps)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.workers = [1, 2]
        args.clients = [1, 2]
        args.rounds = 1
        args.sf = 1
        args.scale = "test"

    table = run(args)
    text_path = table.emit("persistence.txt")
    json_path = table.save_json(args.out)
    print(f"\nsaved to {text_path} and {json_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
