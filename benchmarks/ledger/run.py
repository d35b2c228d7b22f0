"""The layer ledger: this repository's benchmark.

Two ways in, one code path.

The contract form runs one workload and prints, as the last line of its
standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``)::

    python3 benchmarks/ledger/run.py --workload warm_point --seed 7 \\
        --seconds 15 --trace 0

The suite form (no ``--workload``) runs that command once per workload —
each in a process of its own, so peak memory is per workload — prints
every metric by name with its unit, and writes ``out/ledger.json``::

    python3 benchmarks/ledger/run.py [--seed N] [--traced] [--repeat K]
                                     [--smoke]

Exit status is non-zero when any operation failed or any answer differed
from the oracle.  See README.md in this directory for what the names mean.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO_ROOT, "src")
BENCHMARK_JSON = os.path.join(REPO_ROOT, "BENCHMARK.json")

# Operations a timed leg must reach before its tail percentile counts:
# p95 of 240 samples has twelve beyond it.
MIN_OPS = 240
SETUP_REPEATS = 3
SMOKE_MAX_OPS = 40
# Operation ids of the in-process replay of served_mix start here, clear
# of the wire legs' ids.
REPLAY_FIRST_OP = 1_000_000


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", default=None,
                        help="run this one workload (the contract form)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed run "
                        "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="contract form: 1 = traced run, per-layer "
                        "metrics")
    parser.add_argument("--traced", action="store_true",
                        help="suite form: also make the traced run")
    parser.add_argument("--repeat", type=int, default=1,
                        help="suite form: run K times and report the spread")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fixture, at most 40 operations per "
                        "workload (what the tests run)")
    parser.add_argument("--data-dir", default=os.path.join(HERE, "data"),
                        help="fixture cache and scratch space")
    parser.add_argument("--out-dir", default=os.path.join(HERE, "out"),
                        help="where traces and ledger.json go")
    return parser.parse_args(argv)


def _contract() -> dict:
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as handle:
        return json.load(handle)


# -- one workload (contract form) --------------------------------------------


def _class_summary(leg) -> dict:
    """Per operation class: how many, and their median latency."""
    by_kind: dict[str, list[float]] = {}
    for kind, seconds in leg.samples:
        by_kind.setdefault(kind, []).append(seconds * 1e3)
    return {
        kind: {"count": len(values), "p50_ms": statistics.median(values)}
        for kind, values in sorted(by_kind.items())
    }


def _class_at(leg, q: float) -> str:
    """The operation class of the sample at quantile ``q``."""
    ordered = sorted(leg.samples, key=lambda sample: sample[1])
    return ordered[math.ceil(q * len(ordered)) - 1][0]


def _overhead(traced_leg, plain_leg) -> float:
    """Traced p50 over untraced p50, minus one."""
    traced = statistics.median(traced_leg.latencies_ms())
    return traced / statistics.median(plain_leg.latencies_ms()) - 1.0


def _layer_values(engine_leg, overhead: float, setup_counters: dict,
                  recorder, fixture, wire_leg=None,
                  server_stats: dict | None = None) -> dict:
    """Every per-layer metric, from the traced legs and the counters."""
    records = engine_leg.records
    cycle = [r for r in records if r["in_first_cycle"]]
    delta = engine_leg.first_cycle
    memory, disk, planner = delta["memory"], delta["disk"], delta["planner"]
    loads = [s for s in recorder.spans if s.name == "chunk_load"]
    setup_loads = [s for s in loads if s.op < 0]
    load_seconds = sum(s.duration for s in loads)
    wire = wire_leg.records if wire_leg is not None else []
    admission = (server_stats or {}).get("admission", {})

    def median_of(key: str, rows: list[dict] = records) -> float:
        values = [r[key] for r in rows if r[key] is not None]
        return statistics.median(values) if values else 0.0

    def total(key: str) -> int:
        return sum(r[key] for r in cycle)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    return {
        "serving_overhead_ms": median_of("serving_overhead_ms", wire),
        "serving_admitted": admission.get("admitted_total", 0),
        "serving_queued": admission.get("queued", 0),
        "serving_shed": admission.get("rejected_total", 0),
        "wire_bytes_per_row": ratio(
            sum(r["wire_bytes"] for r in wire),
            sum(r["rows_out"] for r in wire),
        ),
        "sql_bind_ms": median_of("bind_ms"),
        "compile_ms": median_of("compile_ms"),
        "stage_one_ms": median_of("stage_one_ms"),
        "rows_scanned_per_row_out": ratio(
            total("rows_scanned"), total("rows_out")
        ),
        "chunks_required": planner["chunks_considered"],
        "chunks_pruned": planner["chunks_pruned"],
        "prune_ratio": ratio(
            planner["chunks_pruned"], planner["chunks_considered"]
        ),
        "chunks_from_memory": total("chunks_from_memory"),
        "chunks_from_store": total("chunks_from_store"),
        "chunks_loaded": total("chunks_loaded"),
        "recycler_hits": memory["hits"],
        "recycler_misses": memory["misses"],
        "recycler_coalesced": memory["coalesced"],
        "recycler_evictions": memory["evictions"],
        "recycler_rehydrates": memory["rehydrates"],
        # A fetch ends as a memory hit, a rehydrate from the store, or a
        # miss that goes to the loader.
        "recycler_hit_ratio": ratio(
            memory["hits"],
            memory["hits"] + memory["rehydrates"] + memory["misses"],
        ),
        "setup_store_spills": setup_counters["disk"]["spills"],
        "setup_store_bytes_spilled": setup_counters["disk"]["bytes_spilled"],
        "store_rehydrates": disk["rehydrates"],
        "store_bytes_per_repo_byte": ratio(
            setup_counters["disk"]["bytes_stored"], fixture.stats.repo_bytes
        ),
        "chunk_load_ms": ratio(load_seconds * 1e3, len(loads)),
        "chunk_loads": total("chunk_loads"),
        "chunk_load_busy_ms": total("chunk_load_busy_ms"),
        "setup_chunk_loads": len(setup_loads),
        "setup_chunk_load_busy_ms": (
            sum(s.duration for s in setup_loads) * 1e3
        ),
        "samples_decoded_per_s": ratio(
            sum(s.rows or 0 for s in loads), load_seconds
        ),
        "stage_two_ms": median_of("stage_two_ms"),
        "physical_self_ms": median_of("physical_self_ms"),
        "rows_joined": total("rows_joined"),
        "rows_out": total("rows_out"),
        "derive_ms": median_of("derive_ms"),
        "windows_inserted": total("windows_inserted"),
        "tracing_overhead_frac": overhead,
    }


def run_workload(args: argparse.Namespace) -> int:
    """The contract form: one workload, one result line."""
    if not os.path.isdir(SRC):
        print(f"no engine to measure: {SRC} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    # Everything the engine puts in a temporary directory (working
    # directories, spilled chunks) stays inside the checkout.
    scratch = os.path.join(args.data_dir, "tmp")
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(args.out_dir, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = scratch

    from harness import Oracle, build_fixture
    from measure import host_metadata
    from workloads import WORKLOADS, build_plan

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    seconds = args.seconds or _contract()["run_seconds"]
    fixture = build_fixture(args.data_dir, args.smoke)
    plan = build_plan(args.workload, args.seed, fixture.days)
    info: dict = {
        "workload": plan.spec.name, "seed": args.seed,
        "traced": bool(args.trace), "smoke": args.smoke,
        "clients": plan.spec.clients, "loop": plan.spec.loop,
        "seconds": seconds,
        "fixture": {
            "build_s": fixture.build_s, "chunks": fixture.stats.num_files,
            "samples": fixture.stats.num_samples,
            "repo_bytes": fixture.stats.repo_bytes,
        },
    }
    oracle = Oracle(fixture)
    try:
        oracle.prime([
            sql for client in plan.clients for sql in client.pooled_sql()
        ])
        measure = _traced_run if args.trace else _plain_run
        metrics, legs = measure(args, fixture, plan, oracle, seconds, info)
    finally:
        oracle.close()

    attempted = sum(leg.attempted for leg in legs)
    failed = sum(leg.failed for leg in legs)
    info.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        host=host_metadata(REPO_ROOT),
    )
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


def _new_target(fixture, plan, recorder=None):
    from harness import InProcessTarget, ServedTarget

    if plan.spec.served:
        return ServedTarget(fixture, plan, SRC, recorder)
    return InProcessTarget(fixture, plan, recorder)


def _plain_run(args, fixture, plan, oracle, seconds: float, info: dict):
    """The untraced run: the end-to-end metrics.

    Set-up is repeated, and every repetition is followed by its share of
    the timed run on the database (or server) it just set up.  That way
    ``setup_s`` is a median of several set-ups, no set-up is thrown away,
    and the timed legs sample the host over the whole run instead of one
    stretch of it.
    """
    from harness import Budget, Leg
    from measure import MIN_BEYOND, percentile

    spec = plan.spec
    repeats = 1 if args.smoke else SETUP_REPEATS
    budget = Budget(
        seconds / repeats,
        0 if args.smoke else -(-MIN_OPS // repeats),
        SMOKE_MAX_OPS if args.smoke else None,
    )
    streams = [client.operations() for client in plan.clients]
    setup_times: list[float] = []
    legs: list[Leg] = []
    rejected: frozenset[str] = frozenset()
    for repetition in range(repeats):
        target = _new_target(fixture, plan)
        try:
            setup_times.append(target.setup())
            if spec.served:
                if repetition == 0:
                    rejected = target.verify_pooled(oracle)
                leg = target.run(streams, oracle, budget, False, rejected)
                leg.failed += target.verify_derived(oracle)
            else:
                leg = target.run(streams, oracle, budget, False)
            legs.append(leg)
        finally:
            target.close()
            # A closed database is cyclic garbage holding the whole
            # decoded working set; left to the collector's own schedule
            # it makes each repetition slower than the last.
            gc.collect()
    pooled = Leg()
    for leg in legs:
        pooled.merge(leg)
    min_beyond = 0 if args.smoke else MIN_BEYOND
    latencies = pooled.latencies_ms()
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "latency_p50_ms": (percentile(latencies, 0.50, min_beyond), "ms"),
        "latency_p95_ms": (percentile(latencies, 0.95, min_beyond), "ms"),
        "throughput_qps": (
            statistics.median(
                leg.correct / leg.timed_seconds for leg in legs
            ),
            "1/s",
        ),
    }
    info.update(
        setup_s_repetitions=setup_times,
        leg_throughput_qps=[l.correct / l.timed_seconds for l in legs],
        latency_samples=len(pooled.samples),
        classes=_class_summary(pooled),
        p50_class=_class_at(pooled, 0.50),
        p95_class=_class_at(pooled, 0.95),
    )
    return metrics, legs


def _traced_run(args, fixture, plan, oracle, seconds: float, info: dict):
    """The traced run: the per-layer metrics and the span file.

    One set-up, then a traced leg and an untraced one on the same target;
    the difference of their medians is the tracing overhead.  The traced
    leg goes first: it starts from the state set-up left, so its
    first-cycle counts repeat for a fixed seed.
    """
    from harness import Budget, InProcessTarget
    from layers import LAYER_METRICS
    from spans import SpanRecorder

    spec = plan.spec
    max_ops = SMOKE_MAX_OPS if args.smoke else None
    recorder = SpanRecorder()
    streams = [client.operations() for client in plan.clients]
    target = _new_target(fixture, plan, recorder)
    replay = None
    try:
        target.setup()
        if spec.served:
            third = Budget(seconds / 3, 0, max_ops)
            rejected = target.verify_pooled(oracle)
            wire_leg = target.run(streams, oracle, third, True, rejected)
            plain_leg = target.run(streams, oracle, third, False, rejected)
            wire_leg.failed += target.verify_derived(oracle)
            # The first connection's operation list, replayed in-process
            # for the engine layers the wire cannot see into.
            replay = InProcessTarget(fixture, plan, recorder)
            replay.setup()
            engine_leg = replay.run(
                [plan.clients[0].operations()], oracle,
                Budget(seconds / 3, spec.cycle_ops, max_ops), True,
                first_op=REPLAY_FIRST_OP,
            )
            values = _layer_values(
                engine_leg, _overhead(wire_leg, plain_leg),
                replay.setup_counters, recorder, fixture, wire_leg,
                target.server_stats(),
            )
            legs = [wire_leg, plain_leg, engine_leg]
        else:
            engine_leg = target.run(
                streams, oracle,
                Budget(seconds * 2 / 3, spec.cycle_ops, max_ops), True,
            )
            plain_leg = target.run(
                streams, oracle, Budget(seconds / 3, 0, max_ops), False
            )
            values = _layer_values(
                engine_leg, _overhead(engine_leg, plain_leg),
                target.setup_counters, recorder, fixture,
            )
            legs = [engine_leg, plain_leg]
    finally:
        target.close()
        if replay is not None:
            replay.close()
    trace_path = os.path.join(args.out_dir, f"trace_{spec.name}.json")
    recorder.write(trace_path, workload=spec.name, seed=args.seed)
    info.update(trace_file=trace_path, spans=len(recorder.spans),
                traced_operations=len(engine_leg.records))
    metrics = {m.name: (values[m.name], m.unit) for m in LAYER_METRICS}
    return metrics, legs


# -- the suite (every workload, repeated) ------------------------------------


def _run_child(args: argparse.Namespace, workload: str, trace: int,
               seconds: float) -> tuple[int, dict, dict]:
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--data-dir", args.data_dir, "--out-dir", args.out_dir,
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("info "):
        raise RuntimeError(
            f"{workload} (trace {trace}) exited {done.returncode} "
            "without a result"
        )
    return done.returncode, json.loads(lines[-2][5:]), json.loads(lines[-1])


def run_suite(args: argparse.Namespace) -> int:
    sys.path[:0] = [HERE]
    from measure import spread_summary

    contract = _contract()
    seconds = args.seconds or contract["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    rows: list[dict] = []
    runs: list[dict] = []
    status = 0
    started = time.perf_counter()
    for repetition in range(args.repeat):
        for workload in (w["name"] for w in contract["workloads"]):
            for trace in (0, 1) if args.traced else (0,):
                code, info, result = _run_child(args, workload, trace, seconds)
                status = status or code
                runs.append({"repetition": repetition, **info})
                print(
                    f"[{repetition + 1}/{args.repeat}] {workload} "
                    f"trace={trace}: attempted {result['attempted']}, "
                    f"failed {result['failed']}, "
                    f"peak_rss_mb {info['peak_rss_mb']:.0f}, "
                    f"fixture_build_s {info['fixture']['build_s']:.2f}"
                )
                for name, metric in result["metrics"].items():
                    print(f"    {workload:<11} {name:<28} "
                          f"{metric['value']:>14.4f} {metric['unit']}")
                    rows.append({
                        "repetition": repetition, "workload": workload,
                        "traced": bool(trace), "metric": name, **metric,
                        "attempted": result["attempted"],
                        "failed": result["failed"],
                        "host": info["host"],
                    })
                if not trace:
                    print(f"    {workload:<11} p50 falls in class "
                          f"{info['p50_class']}, p95 in {info['p95_class']}; "
                          f"{info['latency_samples']} samples")
    summaries = []
    if args.repeat > 1:
        print(f"\nspread over {args.repeat} runs "
              "(quartile distance / median; unresolved = wider than bound)")
        keys = dict.fromkeys((r["workload"], r["metric"]) for r in rows)
        for workload, metric in keys:
            values = [r["value"] for r in rows
                      if (r["workload"], r["metric"]) == (workload, metric)]
            summary = spread_summary(values, bounds.get(metric))
            summaries.append(
                {"workload": workload, "metric": metric, **summary}
            )
            if metric in bounds:
                print(
                    f"    {workload:<11} {metric:<16} median "
                    f"{summary['median']:>10.4f}  q1 {summary['q1']:.4f}  "
                    f"q3 {summary['q3']:.4f}  spread/bound "
                    f"{summary['spread_over_bound']:.2f}  {summary['label']}"
                )
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "ledger.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"seed": args.seed, "seconds": seconds,
                   "smoke": args.smoke, "rows": rows, "runs": runs,
                   "spread": summaries}, handle, indent=1)
    print(f"\nwrote {path} in {time.perf_counter() - started:.0f} s; "
          f"{'all answers correct' if status == 0 else 'FAILURES above'}")
    return status


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.workload is not None:
        return run_workload(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
