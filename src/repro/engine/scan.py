"""The one chunk-scan loop: fetch → account → mask → project → filter → place.

The run-time rewrite ``scan(a) → ∪ (cache-scan(f) | chunk-access(f))`` is
one ``ParallelChunkScan``, executed through the three functions here with
the recycler's whole-chunk fetch plugged into :func:`run_schedule` as
``fetch``.  Identical scans running at the same time execute this loop
once and share its result
(:meth:`~repro.engine.database.Database.scan_once`).
"""

from __future__ import annotations

from concurrent.futures import Executor, as_completed
from typing import TYPE_CHECKING, Callable, Sequence, TypeVar

import numpy as np

from .table import Table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .expressions import Expression
    from .physical import ExecutionContext

__all__ = ["filter_piece", "record_outcome", "run_schedule"]

Fetched = TypeVar("Fetched")


def filter_piece(
    chunk: Table, names: Sequence[str], predicate: "Expression | None"
) -> Table:
    """Apply the pushed predicate to a whole chunk, keeping only ``names``.

    The predicate is evaluated on the whole chunk, since it may read a
    column the scan does not emit (a time bound on ``D.sample_time``); the
    projection to ``names`` comes before the filter, so only the emitted
    columns are copied.
    """
    piece = chunk.project(list(names))
    if predicate is None:
        return piece
    mask = np.asarray(predicate.evaluate(chunk), dtype=np.bool_)
    return piece.filter(mask)


def record_outcome(
    ctx: "ExecutionContext", uri: str, outcome: str, chunk: Table
) -> None:
    """Account one chunk fetch outcome into a query's context.

    The outcome is counted in the exec stats and kept per URI in
    ``ctx.chunk_outcomes`` (what the prefetcher credits hits from).  A
    rehydrated ``chunk`` enriches the planner's statistics (no-op when
    already enriched), which is what turns value-predicate pruning on for
    subsequent queries: mmap re-hydrates bypass ``Database.load_chunk``,
    which enriches every chunk it loads.
    """
    ctx.chunk_outcomes[uri] = outcome
    stats = ctx.stats
    if outcome == "loaded":
        stats.chunks_loaded += 1
        stats.chunk_rows_loaded += chunk.num_rows
    elif outcome == "rehydrated":  # mmap re-hydrate from the disk tier
        stats.chunks_rehydrated += 1
        ctx.database.chunk_stats.observe_table(uri, chunk)
    else:  # "hit" or "coalesced": another query (or this one) paid the cost
        stats.chunks_from_cache += 1


def run_schedule(
    schedule: Sequence[int],
    fetch: Callable[[int], Fetched],
    ingest: Callable[[int, Fetched], None],
    poll: Callable[[], None],
    pool: Executor | None = None,
) -> None:
    """Fetch every scheduled chunk, ingesting each on the calling thread.

    ``schedule`` is the order fetches are issued in (the plan's assembly
    order); ``fetch(index)`` runs serially here, or on ``pool`` when one
    is given, and ``ingest(index, fetched)`` runs on the calling thread as
    each fetch completes while the remaining ones keep running.  Callers place results by ``index``,
    so completion order never changes the assembled rows.  ``poll()`` is
    the cancellation point at every chunk boundary; on any exception the
    still-pending fetches are revoked so doomed work never occupies the
    shared pool.
    """
    if pool is None or len(schedule) < 2:
        for index in schedule:
            poll()
            ingest(index, fetch(index))
        return
    futures = {pool.submit(fetch, index): index for index in schedule}
    try:
        for future in as_completed(futures):
            poll()
            ingest(futures[future], future.result())
    except BaseException:
        for pending in futures:
            pending.cancel()
        raise
