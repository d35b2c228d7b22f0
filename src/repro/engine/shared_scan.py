"""Shared chunk scans: one physical pass over a chunk feeds many queries.

The recycler already single-flights the *decode* of a chunk; under N
concurrent dashboard clients the warm path still pays N× for everything
after it — schema alignment, predicate masks, filtered pieces and the
final assembly.  This module extends the single-flight idea from decode
to the whole scan pass (the cooperative/shared scans of MonetDB-lineage
systems the ROADMAP names):

* A :class:`_ScanPass` exists per actual-data table while at least one
  consumer is scanning it.  Queries whose
  :class:`~repro.engine.chunk_planner.ChunkPlan` overlaps attach to the
  same pass; a consumer attaching while others are active is counted in
  ``ExecStats.shared_scan_attached``.
* Within a pass, each chunk URI has at most one *delivery*: the first
  consumer to reach an unclaimed URI becomes its owner, materializes the
  chunk once (through the recycler, so decode stays single-flight and
  tier accounting is unchanged) and publishes it; every other consumer
  waits for the publication instead of re-materializing, counted in
  ``ExecStats.chunks_shared``.  Consumers claim their whole fetch
  schedule up front, so concurrent overlapping queries *partition* the
  URI set and a wave of N queries does ~1× chunk work in total.  Late
  arrivals attach mid-pass and only materialize chunks no delivery
  covers yet.
* Each consumer applies its own residual predicate; filtered pieces are
  memoized per delivery keyed by ``(predicate.key(), schema)`` so *equal*
  predicates share the mask-and-filter work too.  Whole assemblies (piece
  concatenation in plan order) are single-flighted per pass: for the
  identical-query fan-out a dashboard produces, one consumer runs the
  pass and the rest wait for the finished table, skipping the per-chunk
  work entirely.
* A delivery abandoned by its owner (cancellation, load failure) is
  re-claimed by the next consumer that needs it: one consumer's
  :class:`~repro.engine.errors.QueryCancelled` never poisons the others.
  An owner that unwinds abandons every claimed-but-unpublished delivery
  eagerly, so waiters never block on a dead owner.

The pass dies when its last consumer detaches (wave semantics): shared
state lives only as long as somebody is scanning, so memoized pieces can
never outlive the recycler's view of the data by more than one wave.

Results are bit-identical to private scans by construction: pieces are
filtered with the same pushed predicate and concatenated in the same
assembly (plan) order as :func:`~repro.engine.physical` does privately;
owned chunks go through the same :func:`~repro.engine.scan.run_schedule`
loop, in the plan's schedule order and on the same shared I/O pool.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from .errors import ExecutionError
from .scan import filter_piece, record_outcome, run_schedule
from .table import Table
from ..util.counters import Counters
from ..util.lock_sanitizer import make_lock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from . import algebra
    from .database import Database
    from .physical import ExecutionContext

__all__ = ["SharedScanScheduler", "SharedScanStats"]

# How often waiters wake to honor their own CancelToken while another
# consumer materializes a chunk for them.
_CANCEL_POLL_SECONDS = 0.05


@dataclass
class SharedScanStats(Counters):
    """Cumulative scheduler counters (``counters_snapshot()["shared_scan"]``)."""

    passes_started: int = 0
    consumers_total: int = 0
    consumers_attached: int = 0
    deliveries_produced: int = 0
    deliveries_shared: int = 0
    assemblies_shared: int = 0


class _Delivery:
    """Single-flight production of one chunk within one scan pass."""

    __slots__ = ("uri", "event", "chunk", "error", "pieces")

    def __init__(self, uri: str) -> None:
        self.uri = uri
        self.event = threading.Event()
        self.chunk: Table | None = None
        self.error: BaseException | None = None
        # (predicate key | None, schema names) -> aligned+filtered piece.
        self.pieces: dict[tuple, Table] = {}

    @property
    def published(self) -> bool:
        return self.event.is_set() and self.error is None

    def publish(self, chunk: Table) -> None:
        self.chunk = chunk
        self.event.set()

    def abandon(self, error: BaseException) -> None:
        if not self.event.is_set():
            self.error = error
            self.event.set()


class _Assembly:
    """Single-flight construction of one whole scan result within a pass.

    The identical-query fan-out (N dashboard clients issuing the same
    query) needs more than shared chunks: with deliveries alone every
    consumer still gathers pieces and concatenates them privately.  The
    first consumer to reach an assembly key becomes its owner and runs
    the pass; the rest wait for the finished table and skip the per-chunk
    work entirely.
    """

    __slots__ = ("event", "table", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.table: Table | None = None
        self.error: BaseException | None = None

    @property
    def published(self) -> bool:
        return self.event.is_set() and self.error is None

    def publish(self, table: Table) -> None:
        self.table = table
        self.event.set()

    def abandon(self, error: BaseException) -> None:
        if not self.event.is_set():
            self.error = error
            self.event.set()


class _ScanPass:
    """Shared state of every consumer currently scanning one table."""

    __slots__ = ("table_name", "lock", "consumers", "deliveries", "assemblies")

    def __init__(self, table_name: str) -> None:
        self.table_name = table_name
        self.lock = make_lock("_ScanPass.lock")
        self.consumers = 0
        self.deliveries: dict[str, _Delivery] = {}
        # (uris, predicate key | None, schema names) -> single-flight
        # assembly of the whole scan result.
        self.assemblies: dict[tuple, _Assembly] = {}


class SharedScanScheduler:
    """Co-schedules overlapping ``ParallelChunkScan``s, one pass per table.

    Owned by a :class:`~repro.engine.database.Database`;
    :func:`~repro.engine.physical` routes a scan here when its plan node
    carries ``shared=True`` (the ``TwoStageOptions(shared_scan=True)``
    gate).
    """

    # Machine-checked (repro analyze, lock-discipline): the shared-scan
    # counters feed counters_snapshot() and must never race.
    _GUARDED = {"_lock": ("stats",)}

    def __init__(self, database: "Database") -> None:
        self.database = database
        self._lock = make_lock("SharedScanScheduler._lock")
        self._passes: dict[str, _ScanPass] = {}
        self.stats = SharedScanStats()

    # -- monitoring --------------------------------------------------------

    def stats_snapshot(self) -> dict[str, int]:
        with self._lock:
            return asdict(self.stats)

    # -- execution ---------------------------------------------------------

    def execute(
        self, plan: "algebra.ParallelChunkScan", ctx: "ExecutionContext"
    ) -> Table:
        """Run one consumer's scan through the table's shared pass."""
        if not plan.uris:
            return Table.empty(plan.schema)
        with self._lock:
            scan_pass = self._passes.get(plan.table_name)
            if scan_pass is None:
                scan_pass = _ScanPass(plan.table_name)
                self._passes[plan.table_name] = scan_pass
                self.stats.passes_started += 1
            elif scan_pass.consumers > 0:
                ctx.stats.shared_scan_attached += 1
                self.stats.consumers_attached += 1
            self.stats.consumers_total += 1
            scan_pass.consumers += 1
        try:
            return self._consume(scan_pass, plan, ctx)
        finally:
            with self._lock:
                scan_pass.consumers -= 1
                # Last consumer out ends the wave; the next arrival
                # starts a fresh pass (decode stays warm in the
                # recycler, only the scan-level memos are dropped).
                if (
                    scan_pass.consumers == 0
                    and self._passes.get(plan.table_name) is scan_pass
                ):
                    del self._passes[plan.table_name]

    def _consume(
        self,
        scan_pass: _ScanPass,
        plan: "algebra.ParallelChunkScan",
        ctx: "ExecutionContext",
    ) -> Table:
        predicate_key = (
            plan.pushed_predicate.key()
            if plan.pushed_predicate is not None
            else None
        )
        names = tuple(plan.schema.names)
        assembly_key = (plan.uris, predicate_key, names)
        while True:
            with scan_pass.lock:
                assembly = scan_pass.assemblies.get(assembly_key)
                if assembly is None or assembly.error is not None:
                    assembly = _Assembly()
                    scan_pass.assemblies[assembly_key] = assembly
                    owner = True
                else:
                    owner = False
            if owner:
                try:
                    result = self._run_pass(
                        scan_pass, plan, ctx, predicate_key, names
                    )
                except BaseException as exc:
                    assembly.abandon(exc)
                    raise
                assembly.publish(result)
                return result
            # The identical-query fan-out: another consumer of this wave is
            # assembling exactly this scan; wait for the finished table.
            while not assembly.event.wait(_CANCEL_POLL_SECONDS):
                ctx.check_cancelled()
            if assembly.published:
                assert assembly.table is not None
                ctx.stats.chunks_shared += len(plan.uris)
                with self._lock:
                    self.stats.assemblies_shared += 1
                return assembly.table
            # The assembler unwound without publishing: take over.

    def _run_pass(
        self,
        scan_pass: _ScanPass,
        plan: "algebra.ParallelChunkScan",
        ctx: "ExecutionContext",
        predicate_key: tuple | None,
        names: tuple[str, ...],
    ) -> Table:
        uris = plan.uris
        # Claim phase: sweep the whole schedule first, so concurrent
        # consumers partition the chunk set instead of colliding one URI
        # at a time.
        owned: dict[int, _Delivery] = {}
        joined: dict[int, _Delivery] = {}
        with scan_pass.lock:
            for index in plan.plan.schedule:
                uri = uris[index]
                delivery = scan_pass.deliveries.get(uri)
                if delivery is None or delivery.error is not None:
                    delivery = _Delivery(uri)
                    scan_pass.deliveries[uri] = delivery
                    owned[index] = delivery
                else:
                    joined[index] = delivery

        pieces: list[Table | None] = [None] * len(uris)

        def finish(index: int, delivery: _Delivery) -> None:
            pieces[index] = self._piece(delivery, plan, predicate_key, names)

        self._materialize_owned(plan, ctx, owned, finish)
        for index, delivery in joined.items():
            self._await_delivery(scan_pass, index, delivery, plan, ctx, finish)

        return Table.concat_all(pieces)

    def _materialize_owned(
        self,
        plan: "algebra.ParallelChunkScan",
        ctx: "ExecutionContext",
        owned: dict[int, _Delivery],
        finish,
    ) -> None:
        """Produce every claimed chunk, publishing each as it lands.

        ``owned`` maps plan index → claimed delivery in schedule order.
        The source plugged into the one scan loop is the local recycler
        plus a publish; accounting and piece building stay on the query
        thread.  Unwinding abandons every claimed-but-unpublished
        delivery, so waiters never block on a dead owner.
        """
        database = self.database

        def produce(index: int) -> tuple[Table, str, float]:
            delivery = owned[index]
            fetched = database.fetch_chunk(delivery.uri, plan.table_name)
            delivery.publish(fetched[0])
            return fetched

        def ingest(index: int, fetched: tuple[Table, str, float]) -> None:
            chunk, outcome, cost = fetched
            delivery = owned[index]
            record_outcome(
                ctx, delivery.uri, outcome, chunk.num_rows, cost, chunk
            )
            with self._lock:
                self.stats.deliveries_produced += 1
            finish(index, delivery)

        pool = (
            database.io_executor(plan.io_threads)
            if plan.io_threads > 1
            else None
        )
        try:
            run_schedule(
                tuple(owned), produce, ingest, ctx.check_cancelled, pool
            )
        except BaseException as exc:
            for delivery in owned.values():
                delivery.abandon(exc)
            raise

    def _await_delivery(
        self,
        scan_pass: _ScanPass,
        index: int,
        delivery: _Delivery,
        plan: "algebra.ParallelChunkScan",
        ctx: "ExecutionContext",
        finish,
    ) -> None:
        """Wait for another consumer's delivery, re-claiming if abandoned."""
        while True:
            # Owner progress wakes us immediately; the timeout only bounds
            # how long our own cancel token can go unchecked.
            while not delivery.event.wait(_CANCEL_POLL_SECONDS):
                ctx.check_cancelled()
            if delivery.published:
                if delivery.chunk is None:  # pragma: no cover - defensive
                    raise ExecutionError(
                        f"shared scan delivery of {delivery.uri!r} "
                        "published no chunk"
                    )
                ctx.stats.chunks_shared += 1
                with self._lock:
                    self.stats.deliveries_shared += 1
                return finish(index, delivery)
            # The owner unwound without publishing: take over (or join a
            # newer claimant's delivery).
            with scan_pass.lock:
                current = scan_pass.deliveries.get(delivery.uri)
                if current is None or current.error is not None:
                    current = _Delivery(delivery.uri)
                    scan_pass.deliveries[delivery.uri] = current
                    owned = True
                else:
                    owned = False
                delivery = current
            if owned:
                return self._materialize_owned(
                    plan, ctx, {index: delivery}, finish
                )

    def _piece(
        self,
        delivery: _Delivery,
        plan: "algebra.ParallelChunkScan",
        predicate_key: tuple | None,
        names: tuple[str, ...],
    ) -> Table:
        """This consumer's aligned+filtered view of a delivered chunk.

        Memoized per delivery: consumers with the same pushed predicate
        and schema share the mask evaluation and filtered piece, not just
        the decoded chunk.  Recomputing under a race is harmless (both
        sides produce identical tables), so the memo rides on the
        GIL-atomicity of single dict operations instead of a lock.
        """
        piece_key = (predicate_key, names)
        piece = delivery.pieces.get(piece_key)
        if piece is not None:
            return piece
        assert delivery.chunk is not None
        piece = filter_piece(delivery.chunk, names, plan.pushed_predicate)
        return delivery.pieces.setdefault(piece_key, piece)
