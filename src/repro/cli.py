"""Command-line interface: build datasets, run queries, regenerate figures.

Usage::

    python -m repro build --base /tmp/data --sf 3 --scale test
    python -m repro query --base /tmp/data --sf 3 --scale test \
        --sql "SELECT COUNT(*) AS n FROM gmdview" [--approach lazy] [--explain]
    python -m repro explain --base /tmp/data --sf 3 --scale test \
        --sql "SELECT COUNT(*) AS n FROM dataview" [--warm-sql "..."]
    python -m repro cache --base /tmp/data --sf 3 --scale test \
        --sql "SELECT COUNT(*) AS n FROM dataview" [--json] [--workdir /tmp/db]
    python -m repro serve --base /tmp/data --sf 3 --scale test \
        [--port 8080] [--pool-size 4] [--max-queue 8] [--rate-limit 10]
    python -m repro bench --experiment fig6 [--profile quick]
    python -m repro inspect --base /tmp/data --sf 3 --scale test
    python -m repro analyze [--root src/repro] [--json] [--output out.json] \
        [--checker durability --checker swallow] [--list-checkers] \
        [--fail-on error] [--baseline accepted.json]

The CLI wraps the same public API the examples use; it exists so a
downstream user can poke at a repository without writing Python.
"""

from __future__ import annotations

import argparse
import sys

from .analysis.findings import SEVERITIES
from .bench import (
    ExperimentContext,
    PROFILES,
    run_ablation_rules,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_table2,
    run_table3,
)
from .core.loading import APPROACHES, prepare
from .data import SCALE_PAPER, SCALE_SMALL, SCALE_TEST, build_or_reuse

__all__ = ["main", "build_parser"]

SCALES = {"test": SCALE_TEST, "small": SCALE_SMALL, "paper": SCALE_PAPER}

EXPERIMENTS = {
    "table2": run_table2,
    "table3": run_table3,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "ablation-rules": run_ablation_rules,
}


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="The DBMS - your Big Data Sommelier (ICDE'15 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    # Stage-two execution options shared by every command that runs queries
    # (read back by _two_stage_options).
    execution = argparse.ArgumentParser(add_help=False)
    execution.add_argument(
        "--io-threads", type=_positive_int, default=None,
        help="decode threads for the parallel stage-two pipeline",
    )
    execution.add_argument(
        "--result-cache", action="store_true",
        help="enable the semantic result recycler (repeats and subsumed "
        "queries are served without re-executing)",
    )

    build = commands.add_parser("build", help="build a synthetic repository")
    _add_dataset_args(build)

    inspect = commands.add_parser(
        "inspect", help="list a repository's chunks and sizes"
    )
    _add_dataset_args(inspect)

    query = commands.add_parser(
        "query", help="run SQL against a repository", parents=[execution]
    )
    _add_dataset_args(query)
    query.add_argument("--sql", required=True, help="the SELECT statement")
    query.add_argument(
        "--approach",
        default="lazy",
        choices=sorted(APPROACHES),
        help="loading approach to prepare the database with",
    )
    query.add_argument(
        "--explain",
        action="store_true",
        help="print the compiled plan instead of executing",
    )
    query.add_argument(
        "--limit", type=int, default=20, help="max rows to print"
    )
    query.add_argument(
        "--clients", type=int, default=1,
        help="run the query from N client threads at once; report throughput",
    )

    explain = commands.add_parser(
        "explain",
        help="print the compiled program and the stage-two chunk plan "
        "(chunks pruned, then the chunks to fetch in fetch order with "
        "their predicted tier)",
    )
    _add_dataset_args(explain)
    explain.add_argument("--sql", required=True, help="the SELECT statement")
    explain.add_argument(
        "--approach",
        default="lazy",
        choices=sorted(APPROACHES),
        help="loading approach to prepare the database with",
    )
    explain.add_argument(
        "--warm-sql", action="append", default=None,
        help="query to execute first (warms caches and value statistics; "
        "repeatable)",
    )

    cache = commands.add_parser(
        "cache",
        parents=[execution],
        help="print per-tier recycler statistics (memory + on-disk store) "
        "plus chunk-planner and prefetch counters",
    )
    _add_dataset_args(cache)
    cache.add_argument(
        "--sql", action="append", default=None,
        help="query to run before reporting (repeatable)",
    )
    cache.add_argument(
        "--workdir", default=None,
        help="persistent database directory; reopened warm when it holds "
        "a checkpoint",
    )
    cache.add_argument("--json", action="store_true", help="emit JSON")

    serve = commands.add_parser(
        "serve",
        parents=[execution],
        help="run the asyncio HTTP/JSON query service over a repository "
        "(admission control, rate limits, /stats; Ctrl-C drains)",
    )
    _add_dataset_args(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument(
        "--pool-size", type=int, default=4,
        help="max concurrently executing queries (admission slots)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=8,
        help="requests allowed to wait for a slot before 503s are shed",
    )
    serve.add_argument(
        "--rate-limit", type=float, default=0.0,
        help="per-client token-bucket rate in req/s (0 disables)",
    )
    serve.add_argument(
        "--burst", type=float, default=4.0,
        help="per-client token-bucket burst capacity",
    )
    serve.add_argument(
        "--request-timeout", type=float, default=30.0,
        help="per-request budget; expiry cancels the query (504)",
    )
    serve.add_argument(
        "--workdir", default=None,
        help="persistent database directory; reopened warm when it holds "
        "a checkpoint",
    )

    bench = commands.add_parser(
        "bench", help="regenerate one of the paper's tables/figures"
    )
    bench.add_argument(
        "--experiment", required=True, choices=sorted(EXPERIMENTS)
    )
    bench.add_argument(
        "--profile", default="quick", choices=sorted(PROFILES)
    )
    bench.add_argument(
        "--base", default=None, help="dataset cache directory"
    )

    analyze = commands.add_parser(
        "analyze",
        help="run the repo's AST invariant checkers (async blocking, "
        "cancellation polls, durability, lock discipline, lock order); "
        "nonzero exit on findings",
    )
    analyze.add_argument(
        "--root", action="append", default=None,
        help="directory tree to analyze (repeatable; defaults to the "
        "installed repro package)",
    )
    analyze.add_argument(
        "--checker", action="append", default=None,
        help="run only this checker id (repeatable)",
    )
    analyze.add_argument("--json", action="store_true", help="emit JSON")
    analyze.add_argument(
        "--output", default=None,
        help="also write the JSON report to this path (written even when "
        "findings fail the run)",
    )
    analyze.add_argument(
        "--list-checkers", action="store_true",
        help="list available checker ids and exit",
    )
    analyze.add_argument(
        "--fail-on", choices=list(SEVERITIES), default=SEVERITIES[0],
        help="minimum severity that fails the run (default: "
        f"{SEVERITIES[0]}, i.e. every finding fails)",
    )
    analyze.add_argument(
        "--baseline", default=None,
        help="JSON report of accepted findings; findings present in it "
        "are counted as baselined, not reported",
    )
    return parser


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--base", required=True, help="dataset directory")
    parser.add_argument(
        "--sf", type=int, default=1, choices=(1, 3, 9, 27),
        help="scale factor",
    )
    parser.add_argument(
        "--scale", default="test", choices=sorted(SCALES),
        help="repository scale preset",
    )
    parser.add_argument(
        "--fiam", action="store_true", help="single-station FIAM dataset"
    )


def _command_build(args: argparse.Namespace) -> int:
    repository, stats = build_or_reuse(
        args.base, args.sf, SCALES[args.scale], args.fiam
    )
    print(
        f"repository at {repository.root}: {stats.num_files} files, "
        f"{stats.num_segments} segments, {stats.num_samples:,} samples, "
        f"{stats.repo_bytes:,} bytes"
    )
    return 0


def _command_inspect(args: argparse.Namespace) -> int:
    repository, _ = build_or_reuse(
        args.base, args.sf, SCALES[args.scale], args.fiam
    )
    chunks = repository.list_chunks()
    for chunk in chunks[:20]:
        print(f"{chunk.size_bytes:>10,}  {chunk.uri}")
    if len(chunks) > 20:
        print(f"... and {len(chunks) - 20} more chunks")
    print(f"total: {len(chunks)} chunks, {repository.total_bytes():,} bytes")
    return 0


def _command_query(args: argparse.Namespace) -> int:
    repository, _ = build_or_reuse(
        args.base, args.sf, SCALES[args.scale], args.fiam
    )
    db, report = prepare(
        args.approach, repository, options=_two_stage_options(args)
    )
    try:
        print(
            f"prepared with {args.approach} in {report.total_seconds:.3f}s "
            f"({', '.join(f'{k}={v:.3f}s' for k, v in report.seconds.items())})"
        )
        if args.explain:
            print(db.explain(args.sql))
            return 0
        if args.clients > 1:
            return _run_concurrent_clients(db, args.sql, args.clients)
        result, derivation = db.query_with_derivation(args.sql)
        for row in result.table.to_dicts()[: args.limit]:
            print(row)
        if result.table.num_rows > args.limit:
            print(f"... {result.table.num_rows - args.limit} more rows")
        served = (
            f", served from result cache ({result.result_cache})"
            if result.result_cache
            else ""
        )
        print(
            f"[{result.seconds * 1000:.1f}ms, "
            f"{result.stats.chunks_loaded + derivation.chunks_loaded} "
            "chunk(s) loaded, "
            f"{result.stats.chunks_from_cache} from cache{served}]"
        )
        return 0
    finally:
        db.close()


def _run_concurrent_clients(db, sql: str, clients: int) -> int:
    """Issue the same query from N client threads at once."""
    import time
    from concurrent.futures import ThreadPoolExecutor

    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=clients) as executor:
        latencies = list(
            executor.map(lambda _: db.query(sql).seconds, range(clients))
        )
    wall = time.perf_counter() - started
    print(
        f"{clients} concurrent clients: {wall:.3f}s wall, "
        f"{clients / wall:.2f} queries/s, "
        f"avg latency {sum(latencies) / len(latencies) * 1000:.1f}ms"
    )
    return 0


def _two_stage_options(args: argparse.Namespace):
    """TwoStageOptions from the shared --io-threads/--result-cache flags."""
    from .core.two_stage import TwoStageOptions

    option_kwargs = {}
    if getattr(args, "io_threads", None) is not None:
        option_kwargs["io_threads"] = args.io_threads
    if getattr(args, "result_cache", False):
        option_kwargs["result_cache"] = True
    return TwoStageOptions(**option_kwargs) if option_kwargs else None


def _prepare_or_reopen(args: argparse.Namespace, options):
    """A lazy database over --workdir (reopened warm) or the dataset args."""
    import os

    from .core.sommelier import SommelierDB

    checkpoint = (
        os.path.join(args.workdir, "catalog.json") if args.workdir else None
    )
    if checkpoint and os.path.exists(checkpoint):
        return SommelierDB.open(args.workdir, options=options)
    repository, _ = build_or_reuse(
        args.base, args.sf, SCALES[args.scale], args.fiam
    )
    db, _ = prepare("lazy", repository, workdir=args.workdir, options=options)
    return db


def _command_cache(args: argparse.Namespace) -> int:
    """Run optional queries, then report per-tier recycler statistics."""
    from .jsonio import render_json

    db = _prepare_or_reopen(args, _two_stage_options(args))
    try:
        for sql in args.sql or ():
            db.query(sql)
        # The same serialization the serving front end's /stats embeds.
        stats = db.counters_snapshot()
        if args.json:
            print(render_json(stats, kind="cache-counters"))
        else:
            for section, counters in stats.items():
                parts = " ".join(f"{k}={v}" for k, v in counters.items())
                print(f"[{section}] {parts}")
        return 0
    finally:
        db.close()


def _command_serve(args: argparse.Namespace) -> int:
    """Run the serving front end until interrupted; Ctrl-C drains."""
    import asyncio
    import signal

    from .serving import ServerConfig, SommelierServer

    config = ServerConfig(
        host=args.host,
        port=args.port,
        pool_size=args.pool_size,
        max_queue=args.max_queue,
        rate_limit_qps=args.rate_limit,
        rate_limit_burst=args.burst,
        request_timeout_s=args.request_timeout,
    )
    db = _prepare_or_reopen(args, _two_stage_options(args))

    async def run() -> None:
        server = SommelierServer(db, config)
        await server.start()
        print(
            f"serving on http://{config.host}:{server.port} "
            f"(pool={config.pool_size}, queue<={config.max_queue}, "
            f"timeout={config.request_timeout_s:g}s) — Ctrl-C drains"
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        await stop.wait()
        print("draining in-flight queries ...")
        await server.stop(drain=True)

    try:
        asyncio.run(run())
        return 0
    except KeyboardInterrupt:  # pragma: no cover - signal-handler fallback
        return 0
    finally:
        db.close()


def _command_explain(args: argparse.Namespace) -> int:
    """Compile-time view plus the runtime chunk plan (no stage two)."""
    repository, _ = build_or_reuse(
        args.base, args.sf, SCALES[args.scale], args.fiam
    )
    db, _ = prepare(args.approach, repository)
    try:
        for sql in args.warm_sql or ():
            db.query(sql)
        print(db.explain(args.sql))
        print()
        print(db.explain_chunks(args.sql))
        return 0
    finally:
        db.close()


def _command_bench(args: argparse.Namespace) -> int:
    import os

    os.environ["REPRO_BENCH_PROFILE"] = args.profile
    ctx = ExperimentContext(base_dir=args.base)
    try:
        table = EXPERIMENTS[args.experiment](ctx)
        path = table.emit(f"{args.experiment.replace('-', '_')}.txt")
        print(f"\nsaved to {path}")
        return 0
    finally:
        ctx.close()


def _command_analyze(args: argparse.Namespace) -> int:
    """Run the static-analysis checkers; exit 1 on unsuppressed findings."""
    import os

    from .analysis import analyze, checker_ids, load_baseline
    from .jsonio import render_json

    if args.list_checkers:
        from .analysis import all_checkers

        for checker in all_checkers():
            print(f"{checker.id:<18} [{checker.severity}] "
                  f"{checker.description}")
        return 0
    try:
        only = tuple(args.checker) if args.checker else None
        roots = args.root or [os.path.dirname(os.path.abspath(__file__))]
        baseline = None
        if args.baseline:
            try:
                baseline = load_baseline(args.baseline)
            except (OSError, ValueError) as exc:
                print(f"cannot load baseline: {exc}", file=sys.stderr)
                return 2
        report = analyze(
            roots, only=only, baseline=baseline, fail_on=args.fail_on
        )
    except KeyError:
        known = ", ".join(checker_ids())
        print(f"unknown checker id; known checkers: {known}",
              file=sys.stderr)
        return 2
    rendered = render_json(report.to_payload(), kind="analyze-report")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
    if args.json:
        print(rendered)
    else:
        print(report.render_text())
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "build": _command_build,
        "inspect": _command_inspect,
        "query": _command_query,
        "explain": _command_explain,
        "cache": _command_cache,
        "serve": _command_serve,
        "bench": _command_bench,
        "analyze": _command_analyze,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
