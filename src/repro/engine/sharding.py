"""Sharded scatter-gather execution over partitioned chunk stores.

The shared-nothing rung of the scale-out ladder: the stats catalog is
partitioned by hash on ``(station, time-bucket)`` into N shards, each owned
by one long-lived worker process with its own on-disk
:class:`~repro.engine.chunk_store.ChunkStore`, its own budgeted
:class:`~repro.engine.recycler.Recycler` and its own Steim decode kernels
(see :mod:`~repro.engine.shard_worker`).  Stage one still runs once in the
parent — metadata never moves — and the :class:`ScatterGatherCoordinator`
splits the planner's cost-ordered :class:`~repro.engine.chunk_planner.
ChunkPlan` into per-shard sub-plans, dispatches them, and merges the
filtered pieces back in the plan's assembly order, so sharded results are
bit-identical to serial execution by construction.

Placement is *deterministic*: a chunk's shard is the stable hash of its
station and time bucket (day granularity by default), so assignments
survive restarts without persisting a chunk→shard map — the checkpoint
records only ``{shards, bucket_ms}`` and every worker finds its own chunks
spilled in its own store.  Chunks not (yet) described by the F/S metadata
hash on their URI instead, which is equally stable.

One single-worker spawn pool per shard guarantees task→shard affinity (a
shared pool would route tasks to whichever worker is free, scattering each
shard's working set across every process).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import uuid
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from . import shard_worker
from .errors import ExecutionError, QueryCancelled, StorageError
from .scan import record_outcome
from .table import Table
from ..util.counters import Counters
from ..util.lock_sanitizer import make_lock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from . import algebra
    from .chunk_planner import ChunkPlan
    from .database import ChunkDirectory, Database
    from .physical import ExecutionContext

__all__ = [
    "DEFAULT_BUCKET_MS",
    "ShardLayout",
    "ScatterGatherCoordinator",
    "ShardingStats",
]

# Day-granularity time buckets: one mseed file covers one instrument-day in
# the paper's repository layout, so (station, day) is the natural unit.
DEFAULT_BUCKET_MS = 24 * 3600 * 1000


def _stable_hash(text: str) -> int:
    """A process- and restart-stable 64-bit hash (``hash()`` is salted)."""
    return int.from_bytes(hashlib.md5(text.encode("utf-8")).digest()[:8], "big")


class ShardLayout:
    """Deterministic chunk placement by (station, time-bucket) hash.

    A chunk's station and earliest start time come from the database's
    :class:`~repro.engine.database.ChunkDirectory` (the F/S index the
    prefetcher reads too).  Only the parameters — shard count and bucket
    width — are persisted; the assignment function is pure, so a reopened
    database routes every chunk to the same shard that spilled it.
    """

    def __init__(self, shards: int, bucket_ms: int = DEFAULT_BUCKET_MS) -> None:
        if shards < 1:
            raise StorageError("shard layout needs at least one shard")
        if bucket_ms < 1:
            raise StorageError("shard time bucket must be positive")
        self.shards = int(shards)
        self.bucket_ms = int(bucket_ms)

    def shard_of(self, uri: str, directory: "ChunkDirectory") -> int:
        """The owning shard of a chunk URI (stable across restarts)."""
        entry = directory.entries.get(uri)
        if entry is None:
            # Not described by F/S (ad-hoc URI): hash the URI itself —
            # still deterministic, so placement never flaps.
            return _stable_hash(uri) % self.shards
        station, _channel, start = entry
        return _stable_hash(f"{station}|{start // self.bucket_ms}") % self.shards

    def split(
        self, plan: "ChunkPlan", directory: "ChunkDirectory"
    ) -> dict[int, tuple[tuple[int, ...], tuple[int, ...]]]:
        """Partition a chunk plan; returns shard → (assembly, fetch) indexes.

        Both tuples hold *global* indexes into ``plan.chunks`` restricted
        to the shard: the first in the plan's assembly order, the second in
        its scheduled fetch order, so each shard preserves the global
        discipline within its slice.
        """
        owners = [self.shard_of(chunk.uri, directory) for chunk in plan.chunks]
        assembly: dict[int, list[int]] = {}
        for index, owner in enumerate(owners):
            assembly.setdefault(owner, []).append(index)
        fetch: dict[int, list[int]] = {owner: [] for owner in assembly}
        for index in plan.schedule:
            fetch[owners[index]].append(index)
        return {
            owner: (tuple(assembly[owner]), tuple(fetch[owner]))
            for owner in assembly
        }

    def to_json(self) -> dict[str, int]:
        """The checkpointable parameters (placement itself is pure)."""
        return {"shards": self.shards, "bucket_ms": self.bucket_ms}

    @classmethod
    def from_json(cls, payload: object) -> "ShardLayout | None":
        """Parse a checkpointed layout; None for anything malformed."""
        if not isinstance(payload, dict):
            return None
        try:
            shards = int(payload["shards"])
            bucket_ms = int(payload.get("bucket_ms", DEFAULT_BUCKET_MS))
        except (KeyError, TypeError, ValueError):
            return None
        if shards < 1 or bucket_ms < 1:
            return None
        return cls(shards, bucket_ms)


@dataclass
class ShardingStats(Counters):
    """Cumulative coordinator counters (``counters_snapshot()["sharding"]``)."""

    queries: int = 0
    subplans: int = 0
    chunks_routed: int = 0
    worker_crashes: int = 0
    cancel_broadcasts: int = 0


class ScatterGatherCoordinator:
    """Parent-side dispatcher: split, scatter, cancel, gather, merge.

    Owns one single-worker spawn pool per shard (created lazily, reset on
    loader change or worker crash) and the accounting bridge: workers ship
    per-chunk outcome receipts and worker-computed column ranges, which the
    coordinator folds into the parent's ``ExecStats`` and chunk-statistics
    catalog — the parent never materializes a sharded chunk itself.
    """

    # How often the gather loop polls for cancellation (seconds).
    _POLL_SECONDS = 0.05

    # Machine-checked (repro analyze, lock-discipline / blocking-under-lock):
    # scatter-gather counters are snapshot under the stats lock, which must
    # stay cheap — no pool work may run while it is held.
    _GUARDED = {"_stats_lock": ("stats",)}

    def __init__(
        self,
        database: "Database",
        shards: int,
        bucket_ms: int = DEFAULT_BUCKET_MS,
    ) -> None:
        self.database = database
        self.shards = int(shards)
        self.layout = ShardLayout(self.shards, bucket_ms)
        self.root = os.path.join(database.workdir, "shards")
        self._cancel_dir = os.path.join(self.root, ".cancel")
        self._pools: dict[int, ProcessPoolExecutor] = {}
        self._pool_lock = make_lock("ScatterGatherCoordinator._pool_lock")
        self._stats_lock = make_lock("ScatterGatherCoordinator._stats_lock")
        self._worker_kernels: dict[int, str] = {}
        # Bumped by Database.sharding() when the shard count changes; a
        # monitoring gauge only (``sharding.epoch`` in /stats).
        self.layout_epoch = 1
        self.stats = ShardingStats()

    # -- worker pools ------------------------------------------------------

    def shard_store_root(self, shard_id: int) -> str:
        return os.path.join(self.root, f"shard-{shard_id:02d}", "chunks")

    def _pool(self, shard_id: int) -> ProcessPoolExecutor:
        loader = self.database.chunk_loader
        if loader is None:
            raise ExecutionError(
                "sharded execution needs a chunk loader; "
                "register a repository first"
            )
        with self._pool_lock:
            pool = self._pools.get(shard_id)
            if pool is None:
                from ..mseed import steim_kernels

                budget = max(
                    1, self.database.recycler.budget_bytes // self.shards
                )
                pool = ProcessPoolExecutor(
                    max_workers=1,
                    mp_context=multiprocessing.get_context("spawn"),
                    initializer=shard_worker.initialize_shard_worker,
                    initargs=(
                        shard_id,
                        loader,
                        self.shard_store_root(shard_id),
                        budget,
                        steim_kernels.active_kernel(),
                        self.database.recycler.spill_on_evict,
                    ),
                )
                self._pools[shard_id] = pool
            return pool

    def _reset_pool(self, shard_id: int) -> None:
        with self._pool_lock:
            pool = self._pools.pop(shard_id, None)
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def reset_pools(self) -> None:
        """Retire every worker (the loader snapshot they hold is stale)."""
        with self._pool_lock:
            pools = list(self._pools.values())
            self._pools.clear()
        for pool in pools:
            pool.shutdown(wait=False, cancel_futures=True)

    def warm_pools(self) -> dict[int, str]:
        """Spawn every shard worker up front; returns their active kernels."""
        ready = {}
        futures = {
            self._pool(shard_id).submit(shard_worker.shard_worker_ready):
                shard_id
            for shard_id in range(self.shards)
        }
        for future in futures:
            shard_id, kernel = future.result()
            ready[shard_id] = kernel
        with self._stats_lock:
            self._worker_kernels.update(ready)
        return ready

    # -- execution ---------------------------------------------------------

    def execute(
        self, plan: "algebra.ParallelChunkScan", ctx: "ExecutionContext"
    ) -> Table:
        """Run one planned chunk scan across the shards and merge the rows."""
        chunk_plan = plan.plan
        split = self.layout.split(chunk_plan, self.database.chunk_directory())
        # Only a name until a broadcast creates the file: a failed shard
        # stops its siblings through it even when the caller has no token.
        cancel_path = os.path.join(self._cancel_dir, uuid.uuid4().hex)
        futures: dict[object, tuple[int, tuple[int, ...]]] = {}
        failures: list[tuple[int, BaseException]] = []
        for shard_id, (assembly, fetch) in sorted(split.items()):
            local_of = {global_i: local_i
                        for local_i, global_i in enumerate(assembly)}
            task = shard_worker.ShardTask(
                table_name=plan.table_name,
                uris=tuple(chunk_plan.uris[i] for i in assembly),
                fetch_order=tuple(local_of[i] for i in fetch),
                column_names=tuple(plan.schema.names),
                predicate=plan.pushed_predicate,
                cancel_path=cancel_path,
            )
            try:
                future = self._pool(shard_id).submit(
                    shard_worker.execute_shard_plan, task
                )
            except BrokenProcessPool as exc:
                # A worker that died *idle* (between queries) surfaces at
                # submit time; fold it into the same clean-failure path as
                # a mid-plan death.
                failures.append((shard_id, exc))
                continue
            futures[future] = (shard_id, assembly)
        ctx.stats.shard_subplans += len(futures)
        with self._stats_lock:
            self.stats.queries += 1
            self.stats.subplans += len(futures)
            self.stats.chunks_routed += len(chunk_plan.chunks)

        pieces: list[Table | None] = [None] * len(chunk_plan.chunks)
        broadcast = False
        pending = set(futures)
        try:
            while pending:
                done, pending = wait(
                    pending,
                    timeout=self._POLL_SECONDS,
                    return_when=FIRST_COMPLETED,
                )
                if (
                    not broadcast
                    and ctx.cancel is not None
                    and ctx.cancel.cancelled
                ):
                    broadcast = self._broadcast_cancel(cancel_path)
                for future in done:
                    shard_id, assembly = futures[future]
                    try:
                        result = future.result()
                    except BaseException as exc:
                        failures.append((shard_id, exc))
                        # Stop the healthy shards: their work is doomed.
                        if not broadcast:
                            broadcast = self._broadcast_cancel(cancel_path)
                        continue
                    self._ingest(result, assembly, ctx, pieces)
        finally:
            try:
                os.unlink(cancel_path)
            except OSError:
                pass
        if failures:
            self._raise_failures(failures, ctx)
        ctx.check_cancelled()
        merged = [piece for piece in pieces if piece is not None]
        if not merged:
            return Table.empty(plan.schema)
        return Table.concat_all(merged)

    def warm_chunk(self, uri: str, table_name: str) -> None:
        """Prefetch one chunk into its owning shard's recycler."""
        shard_id = self.layout.shard_of(uri, self.database.chunk_directory())
        receipt = self._pool(shard_id).submit(
            shard_worker.warm_chunk, uri, table_name
        ).result()
        self._adopt_receipt(receipt)

    # -- gathering ---------------------------------------------------------

    def _ingest(
        self,
        result: shard_worker.ShardResult,
        assembly: tuple[int, ...],
        ctx: "ExecutionContext",
        pieces: list,
    ) -> None:
        for receipt in result.receipts:
            uri, outcome, num_rows, cost, _ = receipt
            # Outcomes are those of the shard's own recycler; the worker's
            # decode time never passed through Database.load_chunk.
            record_outcome(ctx, uri, outcome, num_rows, cost)
            if outcome == "loaded":
                self.database.account_chunk_seconds(cost)
            self._adopt_receipt(receipt)
        ctx.stats.chunks_from_shards += len(result.pieces)
        with self._stats_lock:
            self._worker_kernels[result.shard_id] = result.kernel
        for local_index, global_index in enumerate(assembly):
            pieces[global_index] = result.pieces[local_index]

    def _adopt_receipt(
        self, receipt: tuple[str, str, int, float, dict | None]
    ) -> None:
        """Fold a worker-computed stats receipt into the parent catalog.

        Shard workers are the only place the full chunk exists, so exact
        column ranges travel back with the receipt and value-predicate
        pruning keeps working for subsequent (parent-planned) queries.
        """
        uri, outcome, num_rows, cost, ranges = receipt
        if ranges:
            self.database.chunk_stats.adopt_persisted(
                uri,
                ranges,
                num_rows=num_rows,
                loading_cost=cost if outcome == "loaded" else None,
            )

    def _raise_failures(
        self, failures: list[tuple[int, BaseException]], ctx: "ExecutionContext"
    ) -> None:
        for shard_id, exc in failures:
            if isinstance(exc, BrokenProcessPool):
                # The pool is unusable; drop it so the next query respawns
                # a fresh worker (its store-backed cache survives).
                self._reset_pool(shard_id)
                with self._stats_lock:
                    self.stats.worker_crashes += 1
        if ctx.cancel is not None and ctx.cancel.cancelled:
            for _, exc in failures:
                if isinstance(exc, QueryCancelled):
                    raise exc
        for shard_id, exc in failures:
            if isinstance(exc, BrokenProcessPool):
                raise ExecutionError(
                    f"shard {shard_id} worker died mid-plan; its pool was "
                    "reset and the next query will respawn it"
                ) from exc
        raise failures[0][1]

    # -- cancellation ------------------------------------------------------

    def _broadcast_cancel(self, cancel_path: str) -> bool:
        """Fan the parent's cancellation out to every shard worker."""
        try:
            os.makedirs(self._cancel_dir, exist_ok=True)
            with open(cancel_path, "w", encoding="utf-8"):
                pass
        except OSError:
            return False
        with self._stats_lock:
            self.stats.cancel_broadcasts += 1
        return True

    # -- introspection / lifecycle -----------------------------------------

    def worker_kernels(self) -> dict[int, str]:
        """Each spawned shard's active decode kernel (satellite of
        ``planner_stats()['decode_kernel']``)."""
        with self._stats_lock:
            return dict(self._worker_kernels)

    def stats_snapshot(self) -> dict[str, object]:
        with self._stats_lock:
            return {
                "shards": self.shards,
                "bucket_ms": self.layout.bucket_ms,
                "epoch": self.layout_epoch,
                **asdict(self.stats),
                "worker_kernels": {
                    str(shard): kernel
                    for shard, kernel in sorted(self._worker_kernels.items())
                },
            }

    def close(self) -> None:
        with self._pool_lock:
            pools = list(self._pools.values())
            self._pools.clear()
        for pool in pools:
            pool.shutdown(wait=True, cancel_futures=True)
