"""Concurrent query serving: client count × io_threads sweeps.

Four experiments motivated by the ROADMAP's "heavy traffic" north star:

* **cold-stage2** — one multi-chunk T4 query against a cold database per
  ``io_threads`` setting: the morsel-style parallel stage-two pipeline vs
  the serial chunk loop (chunk fetches genuinely overlap);
* **throughput warm** — N client threads share one lazy ``SommelierDB``
  (each calls ``db.query`` from its own thread) and drain a T4
  workload with a fully warm recycler.  This is the pure-CPU regime: on
  CPython its scaling is bounded by the GIL and the core count (a 1-core
  runner shows ≈1×) — reported honestly as the compute ceiling;
* **throughput remote** — the same sweep with the recycler capped below
  the working set and the loader's fetch-latency model enabled
  (``XseedChunkLoader.io_delay_ms``), reproducing the paper's
  network-attached repository.  Here queries block on fetches, waits
  overlap across clients, and single-flight sharing kicks in — this is
  the regime where concurrent serving is designed to win;
* **fanout** — N clients issue the *same* scan-heavy aggregate in
  lockstep waves (the dashboard refresh pattern) against a warm
  database at default options.  Identical scans in flight at the same
  time run once, so each wave's chunk pass is shared; the speedup column
  reports throughput vs 1 client and ``shared/wave`` the chunks a wave's
  queries took from another query's scan.  Every client's every result
  is verified against a serial baseline — any mismatch fails the
  benchmark run.

Usage::

    PYTHONPATH=src python benchmarks/bench_concurrency.py \
        --clients 1,2,4 --io-threads 1,2,4 --sf 3 --scale small
    PYTHONPATH=src python benchmarks/bench_concurrency.py --smoke

Emits the bench suite's text table to stdout/``bench_results`` plus the
JSON shape (``ReportTable.to_json``) for CI artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.bench.reporting import ReportTable  # noqa: E402
from repro.core.loading import prepare  # noqa: E402
from repro.core.two_stage import TwoStageOptions  # noqa: E402
from repro.data import SCALE_SMALL, SCALE_TEST, build_or_reuse  # noqa: E402
from repro.data.ingv import EPOCH_2010_MS, MILLIS_PER_DAY  # noqa: E402
from repro.engine.types import format_timestamp  # noqa: E402
from repro.workloads.generator import (  # noqa: E402
    TimeSpan,
    WorkloadSpec,
    generate_workload,
)
from repro.workloads.queries import QueryParams, t4_query  # noqa: E402

SCALES = {"test": SCALE_TEST, "small": SCALE_SMALL}
STATIONS = (("ISK", "BHE"), ("FIAM", "HHZ"), ("ARCI", "BHZ"), ("LATE", "BHN"))


def build_workload(
    span: TimeSpan, queries_per_station: int, seed: int = 20150413
) -> list[str]:
    """A T4 mix across all stations, interleaved deterministically."""
    queries: list[str] = []
    for offset, (station, channel) in enumerate(STATIONS):
        spec = WorkloadSpec(
            query_type="T4",
            num_queries=queries_per_station,
            query_selectivity=0.5,
            workload_selectivity=1.0,
            station=station,
            channel=channel,
            seed=seed + offset,
        )
        queries.extend(generate_workload(spec, span))
    # str hash() is salted per process; md5 keeps the order reproducible.
    queries.sort(key=lambda sql: hashlib.md5(sql.encode()).hexdigest())
    return queries


def measure_throughput(db, queries: list[str], clients: int) -> tuple[float, float]:
    """Drain the workload with N client threads.

    Returns ``(wall_seconds, queries_per_second)``.
    """
    cursor = iter(queries)

    def drain() -> int:
        executed = 0
        while True:
            try:
                sql = next(cursor)  # GIL-atomic enough for a benchmark
            except StopIteration:
                return executed
            db.query(sql)
            executed += 1

    started = time.perf_counter()
    if clients == 1:
        drain()
    else:
        with ThreadPoolExecutor(max_workers=clients) as executor:
            list(executor.map(lambda _: drain(), range(clients)))
    wall = time.perf_counter() - started
    return wall, len(queries) / wall


def fanout_query(span: TimeSpan) -> str:
    """A scan-dominated aggregate over the whole actual-data table.

    No metadata join: the warm cost is the chunk pass itself, which is
    exactly what identical-scan sharing dedupes across a dashboard's
    fan-out.
    """
    return (
        "SELECT AVG(D.sample_value) AS avg_value, "
        "COUNT(D.sample_value) AS n_samples "
        f"FROM D WHERE D.sample_time >= '{format_timestamp(span.start_ms)}' "
        f"AND D.sample_time < '{format_timestamp(span.end_ms)}'"
    )


def measure_fanout(
    db, sql: str, clients: int, rounds: int, expected: list[dict]
) -> tuple[float, float, int, int]:
    """Lockstep waves of the same query from N client threads.

    Returns ``(wall_seconds, queries_per_second, mismatches,
    chunks_shared)``; every result is compared row-for-row against the
    serial baseline.
    """
    barriers = [threading.Barrier(clients) for _ in range(rounds)]
    mismatches = [0] * clients
    shared = [0] * clients

    def client(slot: int) -> None:
        for barrier in barriers:
            barrier.wait()
            result = db.query(sql)
            shared[slot] += result.stats.chunks_shared
            if result.table.to_dicts() != expected:
                mismatches[slot] += 1

    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=clients) as executor:
        list(executor.map(client, range(clients)))
    wall = time.perf_counter() - started
    return wall, clients * rounds / wall, sum(mismatches), sum(shared)


def measure_cold_stage_two(
    repository, io_threads: int, span: TimeSpan, workdir: str
) -> tuple[float, int]:
    """One cold multi-chunk T4 query with the given decode parallelism."""
    db, _ = prepare(
        "lazy",
        repository,
        workdir=workdir,
        options=TwoStageOptions(io_threads=io_threads),
    )
    try:
        sql = t4_query(
            QueryParams(
                station="ISK",
                channel="BHE",
                start_ms=span.start_ms,
                end_ms=span.end_ms,
            )
        )
        db.drop_caches()
        started = time.perf_counter()
        result = db.query(sql)
        seconds = time.perf_counter() - started
        return seconds, result.stats.chunks_loaded
    finally:
        db.close()


def run(args: argparse.Namespace) -> tuple[ReportTable, int]:
    repository, stats = build_or_reuse(
        args.base, args.sf, SCALES[args.scale], fiam_only=False
    )
    days = stats.num_files // 4  # one file per station per day
    span = TimeSpan(EPOCH_2010_MS, EPOCH_2010_MS + days * MILLIS_PER_DAY)
    queries = build_workload(span, args.queries_per_station)

    table = ReportTable(
        title=(
            f"Concurrent serving (sf-{args.sf} {args.scale}, "
            f"{stats.num_files} chunks, {stats.num_samples:,} samples)"
        ),
        headers=[
            "experiment", "clients", "io_threads", "queries",
            "wall_s", "qps", "speedup", "shared/wave",
        ],
    )

    with tempfile.TemporaryDirectory(prefix="repro-bench-conc-") as workdir:
        # -- cold parallel stage two ------------------------------------
        serial_seconds = None
        for index, io_threads in enumerate(args.io_threads):
            seconds, chunks = measure_cold_stage_two(
                repository, io_threads, span,
                os.path.join(workdir, f"cold{index}"),
            )
            if serial_seconds is None:
                serial_seconds = seconds
            table.add_row(
                f"cold-stage2 ({chunks} chunks)", 1, io_threads, 1,
                round(seconds, 4), round(1 / seconds, 2),
                round(serial_seconds / seconds, 2), "",
            )

        # -- warm concurrent throughput (CPU-bound ceiling) -------------
        db, _ = prepare(
            "lazy",
            repository,
            workdir=os.path.join(workdir, "warm"),
            options=TwoStageOptions(io_threads=max(args.io_threads)),
        )
        try:
            for sql in queries:  # warm the recycler and derived metadata
                db.query(sql)
            baseline = None
            for clients in args.clients:
                wall, qps = measure_throughput(db, queries, clients)
                baseline = baseline or qps
                table.add_row(
                    "throughput warm", clients, max(args.io_threads),
                    len(queries), round(wall, 4), round(qps, 2),
                    round(qps / baseline, 2), "",
                )
        finally:
            db.close()

        # -- remote-repository throughput (latency-bound regime) --------
        # Recycler capped below the working set + fetch-latency model:
        # every query blocks on some chunk fetches, which overlap across
        # clients (and coalesce via single-flight).  io_threads=1 keeps
        # in-query fetches serial so the client dimension is isolated.
        db, _ = prepare(
            "lazy",
            repository,
            workdir=os.path.join(workdir, "remote"),
            options=TwoStageOptions(io_threads=1),
            recycler_bytes=args.remote_recycler_bytes,
        )
        db.database.chunk_loader.io_delay_ms = args.fetch_latency_ms
        # The remote regime models a working set that does NOT fit locally;
        # spilling evictions to the on-disk tier would let every re-fetch
        # become a local mmap re-hydrate and dissolve the regime.
        db.database.recycler.spill_on_evict = False
        try:
            for sql in queries[: len(STATIONS)]:  # derive DMd, warm nothing
                db.query(sql)
            baseline = None
            for clients in args.clients:
                wall, qps = measure_throughput(db, queries, clients)
                baseline = baseline or qps
                table.add_row(
                    f"throughput remote ({args.fetch_latency_ms:g}ms fetch)",
                    clients, 1, len(queries), round(wall, 4),
                    round(qps, 2), round(qps / baseline, 2), "",
                )
        finally:
            db.close()

        # -- identical-query fan-out (dashboard regime) -----------------
        # The same scan-heavy aggregate from every client in lockstep
        # waves, warm, at default options: what a user gets.
        sql = fanout_query(span)
        mismatches = 0
        options = TwoStageOptions()
        db, _ = prepare(
            "lazy",
            repository,
            workdir=os.path.join(workdir, "fanout"),
            options=options,
        )
        try:
            expected = db.query(sql).table.to_dicts()  # warm + baseline
            baseline = None
            for clients in args.clients:
                wall, qps, bad, shared = measure_fanout(
                    db, sql, clients, args.fanout_rounds, expected
                )
                mismatches += bad
                baseline = baseline or qps
                table.add_row(
                    "fanout", clients, options.io_threads,
                    clients * args.fanout_rounds,
                    round(wall, 4), round(qps, 2), round(qps / baseline, 2),
                    round(shared / args.fanout_rounds, 1),
                )
        finally:
            db.close()

    table.add_note(
        "speedup: cold-stage2 rows vs the first io_threads value; "
        "throughput and fanout rows vs the first client count; "
        "shared/wave: chunks a fanout wave's queries took from another "
        "query's identical in-flight scan"
    )
    if mismatches:
        table.add_note(
            f"FANOUT MISMATCHES: {mismatches} result(s) differed from the "
            "serial baseline"
        )
    table.add_note(
        "warm = recycler holds the working set (pure-CPU regime, bounded "
        "by cores/GIL); remote = capped recycler + modeled fetch latency "
        "(the latency-bound regime concurrent serving targets)"
    )
    return table, mismatches


def parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="concurrent-serving benchmark (clients × io_threads)"
    )
    parser.add_argument("--clients", type=parse_int_list, default=[1, 2, 4])
    parser.add_argument("--io-threads", type=parse_int_list, default=[1, 2, 4])
    parser.add_argument("--sf", type=int, default=3, choices=(1, 3, 9, 27))
    parser.add_argument("--scale", default="small", choices=sorted(SCALES))
    parser.add_argument(
        "--queries-per-station", type=int, default=6,
        help="T4 workload size is 4 stations × this",
    )
    parser.add_argument(
        "--fetch-latency-ms", type=float, default=5.0,
        help="modeled remote-repository fetch latency per chunk",
    )
    parser.add_argument(
        "--fanout-rounds", type=int, default=15,
        help="lockstep waves per client count in the fanout experiment",
    )
    parser.add_argument(
        "--remote-recycler-bytes", type=int, default=512 * 1024,
        help="recycler budget for the remote experiment (below working set)",
    )
    parser.add_argument(
        "--base",
        default=os.path.join(tempfile.gettempdir(), "repro-bench-data"),
        help="dataset cache directory",
    )
    parser.add_argument(
        "--out", default="concurrency.json", help="JSON artifact filename"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny CI configuration (sf-1 test data, short sweeps)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.clients = [1, 2, 4]
        args.io_threads = [1, 4]
        args.queries_per_station = 2
        args.fanout_rounds = 5
        args.sf = 1
        args.scale = "test"

    table, mismatches = run(args)
    text_path = table.emit("concurrency.txt")
    json_path = table.save_json(args.out)
    print(f"\nsaved to {text_path} and {json_path}")
    if mismatches:
        print(
            f"FAILED: {mismatches} fanout result(s) differed from the "
            "serial baseline",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
