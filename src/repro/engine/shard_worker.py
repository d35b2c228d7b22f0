"""Shard worker processes: per-shard plan execution for scatter-gather.

A *shard* worker owns a whole partition of the warehouse: its own
:class:`~repro.engine.chunk_store.ChunkStore` (under
``<workdir>/shards/shard-NN/chunks``), its own budgeted
:class:`~repro.engine.recycler.Recycler` in front of it, and its own decode
kernels.  The parent's :class:`~repro.engine.sharding.ScatterGatherCoordinator`
splits a :class:`~repro.engine.chunk_planner.ChunkPlan` into per-shard
:class:`ShardTask`\\ s; :func:`execute_shard_plan` runs one through the one
scan loop (:mod:`~repro.engine.scan`) and ships the *filtered* pieces back
by pickle with per-chunk outcome receipts (so the parent's ``ExecStats`` and
chunk-stats catalog stay exact without ever seeing the full chunks).

Worker state persists across tasks: the recycler stays warm between queries,
and because decoded chunks are committed to the shard's on-disk store, a
reopened database comes back warm per-shard too.

Cancellation crosses the process boundary as a filesystem sentinel: the
parent touches ``task.cancel_path`` when its :class:`~repro.engine.physical.
CancelToken` fires, and workers poll it at every chunk boundary
(``multiprocessing.Event`` cannot ride through spawn initargs).

Everything here must stay importable by a spawn-context child.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from .database import qualify_chunk
from .errors import ExecutionError, FormatError, QueryCancelled
from .scan import filter_piece, run_schedule
from .table import Table

__all__ = [
    "ShardTask",
    "ShardResult",
    "initialize_shard_worker",
    "shard_worker_ready",
    "execute_shard_plan",
    "warm_chunk",
]

_SHARD_ID: int | None = None
_LOADER = None
_STORE = None
_RECYCLER = None


@dataclass(frozen=True)
class ShardTask:
    """One shard's slice of a chunk plan, in parent assembly order.

    ``uris`` keeps the parent plan's assembly order restricted to this
    shard; ``fetch_order`` holds *local* indexes into it in the parent
    scheduler's descending-cost order, so the global fetch discipline is
    preserved within each shard.
    """

    table_name: str
    uris: tuple[str, ...]
    fetch_order: tuple[int, ...]
    column_names: tuple[str, ...]
    predicate: object | None
    cancel_path: str


@dataclass
class ShardResult:
    """What one shard ships back: filtered pieces plus accounting receipts.

    ``pieces`` is aligned with ``ShardTask.uris`` (local assembly order).
    ``receipts`` holds ``(uri, outcome, num_rows, cost_seconds, ranges)``
    per fetched chunk — ``ranges`` are exact column min/max bounds computed
    worker-side for freshly decoded or re-hydrated chunks (the parent never
    sees the full chunk, so enrichment must travel with the receipt).
    """

    shard_id: int
    pieces: list[Table]
    receipts: list[tuple[str, str, int, float, dict | None]]
    kernel: str


def initialize_shard_worker(
    shard_id: int,
    loader,
    store_root: str,
    recycler_bytes: int,
    kernel_name: str | None = None,
    spill_on_evict: bool = True,
) -> None:
    """Install per-process shard state (``ProcessPoolExecutor`` initializer).

    ``kernel_name`` is the parent's active Steim kernel: spawn children
    re-read ``REPRO_STEIM_KERNEL`` on import, but a kernel selected via
    ``set_kernel()`` in the parent would otherwise silently diverge.  An
    unknown name (e.g. numba available in the parent only) falls back to
    the worker's own default rather than failing initialization.

    ``spill_on_evict`` mirrors the parent recycler's setting: benchmarks
    model a strictly remote repository by disabling the disk tier, and a
    shard worker quietly re-enabling it would dissolve that regime.
    """
    global _SHARD_ID, _LOADER, _STORE, _RECYCLER
    from ..mseed import steim_kernels
    from .chunk_store import ChunkStore
    from .recycler import Recycler

    _SHARD_ID = int(shard_id)
    _LOADER = loader
    _STORE = ChunkStore(store_root)
    _RECYCLER = Recycler(
        max(1, int(recycler_bytes)),
        store=_STORE,
        spill_on_evict=spill_on_evict,
    )
    if kernel_name:
        try:
            steim_kernels.set_kernel(kernel_name)
        except FormatError:
            pass


def _require_initialized() -> None:
    if _LOADER is None or _STORE is None or _RECYCLER is None:
        raise ExecutionError(
            "shard worker used before initialize_shard_worker ran"
        )


def _active_kernel() -> str:
    from ..mseed import steim_kernels

    return steim_kernels.active_kernel()


def shard_worker_ready(_token: int = 0) -> tuple[int, str]:
    """Warm-up probe; reports (shard_id, active decode kernel)."""
    _require_initialized()
    return _SHARD_ID, _active_kernel()


def _check_cancelled(cancel_path: str) -> None:
    if os.path.exists(cancel_path):
        raise QueryCancelled(
            f"shard {_SHARD_ID}: query cancelled by coordinator"
        )


def _decode_chunk(uri: str, table_name: str) -> tuple[Table, float]:
    """Loader for the shard recycler: decode + qualify + persist.

    The decoded chunk is committed to the shard store immediately (not just
    on eviction) so a restarted database re-hydrates it as mmap columns —
    per-shard warm restarts are part of the checkpoint contract.
    """
    started = time.perf_counter()
    raw = _LOADER.load(uri, table_name)
    elapsed = time.perf_counter() - started
    chunk = qualify_chunk(raw, table_name)
    if _RECYCLER.spill_on_evict and uri not in _STORE:
        _STORE.put(uri, chunk, elapsed, table_name=table_name)
    return chunk, elapsed


def _fetch_one(
    uri: str, table_name: str
) -> tuple[Table, tuple[str, str, int, float, dict | None]]:
    """Fetch one chunk through the shard's two-tier recycler."""
    from .chunk_stats import compute_column_ranges

    chunk, outcome, cost = _RECYCLER.get_or_load(
        uri, lambda u: _decode_chunk(u, table_name)
    )
    ranges = None
    if outcome in ("loaded", "rehydrated"):
        ranges = compute_column_ranges(chunk)
    return chunk, (uri, outcome, chunk.num_rows, cost, ranges)


def execute_shard_plan(task: ShardTask) -> ShardResult:
    """Run one shard sub-plan: fetch, align, filter; return the pieces.

    Fetches follow ``task.fetch_order`` (the parent scheduler's cost order
    restricted to this shard); the returned ``pieces`` list is in the
    task's assembly order, so the coordinator's merge stays bit-identical
    to serial execution.
    """
    _require_initialized()
    pieces: list[Table | None] = [None] * len(task.uris)
    receipts: list[tuple[str, str, int, float, dict | None]] = []

    def fetch(index: int):
        return _fetch_one(task.uris[index], task.table_name)

    def ingest(index: int, fetched) -> None:
        chunk, receipt = fetched
        receipts.append(receipt)
        pieces[index] = filter_piece(chunk, task.column_names, task.predicate)

    run_schedule(
        task.fetch_order, fetch, ingest,
        lambda: _check_cancelled(task.cancel_path),
    )
    return ShardResult(
        shard_id=_SHARD_ID,
        pieces=pieces,
        receipts=receipts,
        kernel=_active_kernel(),
    )


def warm_chunk(
    uri: str, table_name: str
) -> tuple[str, str, int, float, dict | None]:
    """Prefetch path: pull one chunk into this shard's recycler.

    Returns the same receipt shape as plan execution so the parent can
    account the warm-up and adopt worker-computed statistics.
    """
    _require_initialized()
    _, receipt = _fetch_one(uri, table_name)
    return receipt


def exit_now(code: int = 1) -> None:  # pragma: no cover - kills the process
    """Hard-exit the worker (crash-injection hook for tests)."""
    os._exit(code)
