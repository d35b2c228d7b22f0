"""Steim codec throughput: decode, batch entry, encode.

Three measurements of the warm-path decode work every chunk scan feeds:

* **decode** — ``decode()`` of one payload per signal shape (smooth walk,
  wide-range noise, constant);
* **batch vs per-call** — ``decode_many()`` over N payloads against N
  ``decode()`` calls: the header-scan and dispatch overhead amortized by
  the batch entry point;
* **encode** — the encoder's throughput for scale.

Every row verifies its own outputs: decode rows compare sample-for-sample
with the encoded signal, encode rows round-trip their payload.  Any
mismatch makes the benchmark exit nonzero, so the CI leg doubles as a
codec correctness gate.

Usage::

    PYTHONPATH=src python benchmarks/bench_decode.py --samples 200000
    PYTHONPATH=src python benchmarks/bench_decode.py --smoke
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.bench.reporting import ReportTable  # noqa: E402
from repro.mseed import steim  # noqa: E402


def build_signals(samples: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(20150413)
    return {
        "walk": np.cumsum(rng.integers(-100, 100, samples)).astype(np.int64),
        "noise": rng.integers(-(2**31), 2**31, samples).astype(np.int64),
        "constant": np.full(samples, 42, dtype=np.int64),
    }


def best_of(repeats: int, fn) -> float:
    """Min wall seconds over ``repeats`` runs (noise-robust point metric)."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def all_equal(outputs: list[np.ndarray], signals: list[np.ndarray]) -> bool:
    """Whether every output matches its signal sample-for-sample."""
    return len(outputs) == len(signals) and all(
        np.array_equal(out, x) for out, x in zip(outputs, signals)
    )


def run(args: argparse.Namespace) -> tuple[ReportTable, int]:
    signals = build_signals(args.samples)
    mismatches = 0

    table = ReportTable(
        title=(
            f"Steim codec throughput ({args.samples:,} samples/signal, "
            f"best of {args.repeats})"
        ),
        headers=[
            "experiment", "signal", "wall_ms", "msamples_s",
            "speedup_vs_per_call", "verified",
        ],
    )
    table.add_metadata(samples=args.samples, repeats=args.repeats)

    def add(experiment, signal, seconds, samples, ok, speedup=""):
        nonlocal mismatches
        mismatches += 0 if ok else 1
        table.add_row(
            experiment, signal, round(seconds * 1000, 3),
            round(samples / seconds / 1e6, 2), speedup,
            "ok" if ok else "MISMATCH",
        )

    # -- single-payload decode ---------------------------------------------
    for name, x in signals.items():
        payload = steim.encode(x)
        seconds = best_of(args.repeats, lambda: steim.decode(payload))
        add("decode", name, seconds, args.samples,
            all_equal([steim.decode(payload)], [x]))

    # -- batch vs per-call ------------------------------------------------
    per_batch = max(args.samples // args.batch, 1)
    batch_signals = [
        np.cumsum(
            np.random.default_rng(seed).integers(-100, 100, per_batch)
        ).astype(np.int64)
        for seed in range(args.batch)
    ]
    batch_payloads = [steim.encode(x) for x in batch_signals]
    per_call = best_of(
        args.repeats,
        lambda: [steim.decode(p) for p in batch_payloads],
    )
    batched = best_of(
        args.repeats, lambda: steim.decode_many(batch_payloads)
    )
    total = per_batch * args.batch
    add(f"per-call x{args.batch}", "walk", per_call, total,
        all_equal([steim.decode(p) for p in batch_payloads], batch_signals))
    add(f"decode_many x{args.batch}", "walk", batched, total,
        all_equal(steim.decode_many(batch_payloads), batch_signals),
        speedup=round(per_call / batched, 2))

    # -- encode -------------------------------------------------------------
    for name, x in signals.items():
        seconds = best_of(args.repeats, lambda: steim.encode(x))
        add("encode", name, seconds, args.samples,
            all_equal([steim.decode(steim.encode(x))], [x]))

    table.add_note(
        "speedup_vs_per_call: the decode_many row against the per-call row "
        "above it (same payloads)"
    )
    table.add_note(
        "every row verifies its own outputs (decode: against the signal; "
        "encode: by round-trip); any MISMATCH fails the benchmark"
    )
    return table, mismatches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Steim codec throughput benchmark"
    )
    parser.add_argument(
        "--samples", type=int, default=200_000,
        help="samples per signal in the decode and encode rows",
    )
    parser.add_argument(
        "--batch", type=int, default=10,
        help="payload count for the batch-vs-per-call comparison",
    )
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--out", default="decode.json", help="JSON artifact filename"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny CI configuration (short signals, fewer repeats)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.samples = 50_000
        args.repeats = 3

    table, mismatches = run(args)
    text_path = table.emit("decode.txt")
    json_path = table.save_json(args.out)
    print(f"\nsaved to {text_path} and {json_path}")
    if mismatches:
        print(f"FAILED: {mismatches} row(s) failed verification", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
