"""Steim codec throughput: decode kernels, batch entry, encode baseline.

Three comparisons for the warm-path decode work every chunk scan feeds:

* **kernel sweep** — ``decode()`` of one payload per registered kernel
  (``loop`` reference vs the batched ``numpy`` kernel vs ``numba`` when
  importable), per signal shape: the single-stream speedup the grouped
  frame kernel buys;
* **batch vs per-call** — ``decode_many()`` over N payloads against N
  ``decode()`` calls: the header-scan and dispatch overhead amortized by
  the batch entry point;
* **encode** — the encoder's throughput for scale (it is not kernelized).

Every decode result is verified sample-for-sample against the reference
``loop`` kernel; any mismatch makes the benchmark exit nonzero, so the CI
leg doubles as a cross-kernel parity gate.

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
from repro.mseed import steim, steim_kernels  # noqa: E402


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


def run(args: argparse.Namespace) -> tuple[ReportTable, int]:
    signals = build_signals(args.samples)
    payloads = {name: steim.encode(x) for name, x in signals.items()}
    kernels = steim_kernels.available_kernels()
    mismatches = 0

    table = ReportTable(
        title=(
            f"Steim codec throughput ({args.samples:,} samples/signal, "
            f"best of {args.repeats})"
        ),
        headers=[
            "experiment", "signal", "kernel", "wall_ms", "msamples_s",
            "speedup_vs_loop", "verified",
        ],
    )
    table.add_metadata(
        samples=args.samples,
        repeats=args.repeats,
        kernels=list(kernels),
        numba=steim_kernels.NUMBA_AVAILABLE,
    )

    # -- kernel sweep ----------------------------------------------------
    for name, x in signals.items():
        payload = payloads[name]
        loop_seconds = None
        for kernel in kernels:
            previous = steim_kernels.set_kernel(kernel)
            try:
                decoded = steim.decode(payload)
                seconds = best_of(
                    args.repeats, lambda: steim.decode(payload)
                )
            finally:
                steim_kernels.set_kernel(previous)
            ok = bool(np.array_equal(decoded, x))
            mismatches += 0 if ok else 1
            if kernel == "loop":
                loop_seconds = seconds
            table.add_row(
                "decode", name, kernel, round(seconds * 1000, 3),
                round(args.samples / seconds / 1e6, 2),
                round(loop_seconds / seconds, 2) if loop_seconds else "",
                "ok" if ok else "MISMATCH",
            )

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
    for out, x in zip(steim.decode_many(batch_payloads), batch_signals):
        if not np.array_equal(out, x):
            mismatches += 1
    total = per_batch * args.batch
    table.add_row(
        f"per-call x{args.batch}", "walk", steim_kernels.active_kernel(),
        round(per_call * 1000, 3), round(total / per_call / 1e6, 2), "",
        "ok",
    )
    table.add_row(
        f"decode_many x{args.batch}", "walk", steim_kernels.active_kernel(),
        round(batched * 1000, 3), round(total / batched / 1e6, 2),
        round(per_call / batched, 2),
        "ok" if mismatches == 0 else "MISMATCH",
    )

    # -- encode baseline --------------------------------------------------
    for name, x in signals.items():
        seconds = best_of(args.repeats, lambda: steim.encode(x))
        table.add_row(
            "encode", name, "-", round(seconds * 1000, 3),
            round(args.samples / seconds / 1e6, 2), "", "ok",
        )

    table.add_note(
        "speedup_vs_loop: same decode through the reference per-frame "
        "loop kernel; decode_many row: vs the per-call column above it"
    )
    table.add_note(
        "every decode is verified against the encoded signal; any "
        "MISMATCH fails the benchmark"
    )
    if not steim_kernels.NUMBA_AVAILABLE:
        table.add_note("numba not importable: jitted kernel not exercised")
    return table, mismatches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Steim decode-kernel throughput benchmark"
    )
    parser.add_argument(
        "--samples", type=int, default=200_000,
        help="samples per signal in the kernel sweep",
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
        print(f"FAILED: {mismatches} decode mismatch(es)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
