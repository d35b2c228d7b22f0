"""The Database object: catalog + storage + caches + chunk loading.

A :class:`Database` is the engine-level façade that physical operators talk
to.  It owns:

* the :class:`~repro.engine.catalog.Catalog` (tables, views, constraints);
* a :class:`~repro.engine.storage.BufferPool` and
  :class:`~repro.engine.storage.PagedColumnStore` for tables persisted to
  disk (the eager variants page their big actual-data table so scans pay
  realistic I/O costs, reproducing the paper's memory cliff);
* the :class:`~repro.engine.recycler.Recycler` caching lazily loaded chunks;
* the hash and join indexes the ``eager_index`` loading variant builds
  (measured for Fig. 6 and Table III; no query reads them);
* a pluggable :class:`ChunkLoader` that knows how to extract one chunk of an
  external file repository into table rows (realized by the mseed reader).

Base-table scans and loaded chunks alike carry exactly the table's
columns under *qualified* names (``F.station``).
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Protocol

from .catalog import Catalog
from .chunk_planner import ChunkPlanner
from .chunk_stats import ChunkStatsCatalog
from .chunk_store import ChunkStore
from .errors import CatalogError, ExecutionError
from .indexes import HashIndex, JoinIndex
from .recycler import Recycler
from .storage import BufferPool, PagedColumnStore
from .table import Schema, Table
from ..util.lock_sanitizer import make_lock

__all__ = ["ChunkDirectory", "ChunkLoader", "Database"]

# How often a query waiting on another query's identical scan wakes to
# honor its own cancel token.
_SCAN_WAIT_POLL_SECONDS = 0.05


class _InFlightScan:
    """One scan result being computed; ``table`` stays None if it failed."""

    __slots__ = ("done", "table")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.table: Table | None = None


@dataclass(frozen=True)
class ChunkDirectory:
    """Where each registered chunk sits in instrument and time.

    The one index over the given-metadata tables F and S, read by the
    prefetcher's successor prediction.  ``entries``
    maps a chunk URI to ``(station, channel, earliest segment start)``;
    ``successors`` maps a URI to the next chunk in time of the same
    station and channel; ``versions`` are the catalog versions of F and S
    the directory was built from.
    """

    versions: tuple = ()
    entries: dict[str, tuple[str, str, int]] = field(default_factory=dict)
    successors: dict[str, str] = field(default_factory=dict)

    @classmethod
    def build(cls, catalog: Catalog) -> "ChunkDirectory":
        # Versions first: rows written after this read make the directory
        # look stale (rebuilt next time), never current.
        versions = catalog.versions(("F", "S"))
        files = catalog.table("F").data
        segments = catalog.table("S").data
        earliest: dict[int, int] = {}
        for file_id, start in zip(
            segments.column("file_id").values.tolist(),
            segments.column("start_time").values.tolist(),
        ):
            earliest[file_id] = min(start, earliest.get(file_id, start))
        entries = {
            uri: (station, channel, earliest[file_id])
            for uri, station, channel, file_id in zip(
                files.column("uri").values.tolist(),
                files.column("station").values.tolist(),
                files.column("channel").values.tolist(),
                files.column("file_id").values.tolist(),
            )
            if file_id in earliest
        }
        # Sorted by (station, channel, start, uri): each instrument's
        # chunks are adjacent and in time order.
        ordered = sorted((*entry, uri) for uri, entry in entries.items())
        successors = {
            uri: later
            for (s1, c1, _, uri), (s2, c2, _, later) in zip(ordered, ordered[1:])
            if (s1, c1) == (s2, c2)
        }
        return cls(versions, entries, successors)


class ChunkLoader(Protocol):
    """Strategy for ingesting one external chunk (file) into table rows.

    Implementations return rows with *unqualified* column names matching the
    target base table's schema.  ``load`` must be pure with respect to the
    repository: loading the same URI twice yields the same rows.
    """

    def load(self, uri: str, table_name: str) -> Table:  # pragma: no cover
        ...


class Database:
    """One database instance (the unit every loading approach prepares)."""

    # Machine-checked: executor handles and their size watermarks swap only
    # under their lock (repro analyze, lock-discipline), and nothing slow
    # may run while one of these locks is held (REPRO_LOCK_SANITIZER=1).
    _GUARDED = {
        "_io_executor_lock": ("_io_executor", "_io_executor_workers"),
        "_scans_lock": ("_scans",),
    }

    def __init__(
        self,
        name: str = "repro",
        workdir: str | None = None,
        buffer_pool_bytes: int = 256 * 1024 * 1024,
        recycler_bytes: int = 1 << 30,
    ) -> None:
        self.name = name
        self.catalog = Catalog()
        self.buffer_pool = BufferPool(buffer_pool_bytes)
        if workdir is None:
            self._tempdir = tempfile.TemporaryDirectory(prefix=f"repro-{name}-")
            workdir = self._tempdir.name
        else:
            self._tempdir = None
            os.makedirs(workdir, exist_ok=True)
        self.workdir = workdir
        # The persistent disk tier of the recycler: evicted decoded chunks
        # spill here as mmap-able columnar files, and a database reopened
        # over the same workdir comes back warm.
        self.chunk_store = ChunkStore(os.path.join(workdir, "chunks"))
        self.recycler = Recycler(recycler_bytes, store=self.chunk_store)
        self.paged_store = PagedColumnStore(
            os.path.join(workdir, "pages"), self.buffer_pool
        )
        self.chunk_loader: ChunkLoader | None = None
        # Per-chunk min/max statistics (recorded at first decode) and the
        # planner that prunes stage-two chunk fetches against them and
        # predicts each one's serving tier.
        self.chunk_stats = ChunkStatsCatalog()
        self.chunk_planner = ChunkPlanner(self)
        # Identical chunk scans in flight at the same time run once
        # (scan_once): scan key -> the owner's pending result.
        self._scans: dict[tuple, _InFlightScan] = {}
        self._scans_lock = make_lock("Database._scans_lock")
        self.hash_indexes: dict[tuple[str, tuple[str, ...]], HashIndex] = {}
        self.join_indexes: list[JoinIndex] = []
        # Shared chunk-I/O thread pool for the morsel-style stage-two
        # pipeline; created lazily, sized by the largest request so far.
        # Outgrown pools stay alive until close() — callers may still hold
        # references and submit to them.
        self._io_executor: ThreadPoolExecutor | None = None
        self._io_executor_workers = 0
        self._retired_io_executors: list[ThreadPoolExecutor] = []
        self._io_executor_lock = make_lock("Database._io_executor_lock")
        self._chunk_directory = ChunkDirectory()

    # -- scanning -----------------------------------------------------------

    def qualified_schema(self, table_name: str) -> Schema:
        """The scan output schema of a base table (its qualified columns)."""
        return self.catalog.table(table_name).schema.with_prefix(table_name)

    def scan_base_table(self, table_name: str) -> Table:
        """Materialize a base table with qualified names.

        Paged tables are read through the buffer pool (cold scans hit disk);
        in-memory tables are shared without copying.
        """
        base = self.catalog.table(table_name)
        if base.paged and self.paged_store.has_table(table_name):
            image = self.paged_store.read_table(table_name)
        else:
            image = base.data
        return image.with_prefix(table_name)

    # -- mutation -------------------------------------------------------------

    def insert(self, table_name: str, rows: Table) -> None:
        """Append rows; keeps paged image and hash indexes in sync."""
        base = self.catalog.table(table_name)
        if base.paged:
            image = self.paged_store.read_table(table_name)
            start_row = image.num_rows
            self.paged_store.store_table(table_name, image.concat(rows))
            base.mark_written()
        else:
            start_row = base.num_rows
            base.append(rows)
        for (indexed_table, _), index in self.hash_indexes.items():
            if indexed_table == table_name:
                index.extend(rows, start_row)

    def replace(self, table_name: str, rows: Table) -> None:
        """Replace a table's contents wholesale."""
        base = self.catalog.table(table_name)
        if base.paged:
            if rows.schema.names != base.schema.names:
                raise CatalogError(f"replace on {table_name!r}: schema mismatch")
            self.paged_store.store_table(table_name, rows)
            base.mark_written()
        else:
            base.replace(rows)
        for (indexed_table, _), index in self.hash_indexes.items():
            if indexed_table == table_name:
                index.build(rows)

    def page_out(self, table_name: str) -> int:
        """Persist a table to paged storage and mark it disk-resident.

        Returns the bytes written.  After this, scans stream through the
        buffer pool; the in-memory image is released.
        """
        base = self.catalog.table(table_name)
        written = self.paged_store.store_table(table_name, base.data)
        base.paged = True
        base.data = Table.empty(base.schema)
        return written

    def chunk_directory(self) -> ChunkDirectory:
        """The :class:`ChunkDirectory` for the current F and S contents.

        Rebuilt only when a write moved F's or S's version.  Concurrent
        rebuilds are harmless: each builds a complete directory and the
        reference swap is atomic.
        """
        directory = self._chunk_directory
        if directory.versions != self.catalog.versions(("F", "S")):
            directory = ChunkDirectory.build(self.catalog)
            self._chunk_directory = directory
        return directory

    def drop_caches(self) -> None:
        """Simulate a server restart: cold buffer pool, cold recycler."""
        self.buffer_pool.clear()
        self.recycler.clear()

    # -- chunk loading ------------------------------------------------------------

    def set_chunk_loader(self, loader: ChunkLoader) -> None:
        self.chunk_loader = loader

    def io_executor(self, threads: int) -> ThreadPoolExecutor:
        """The shared chunk-I/O pool, grown to at least ``threads`` workers.

        One pool serves every concurrent query on this database so total
        decode parallelism stays bounded regardless of client count.
        """
        threads = max(1, threads)
        with self._io_executor_lock:
            if self._io_executor is None or self._io_executor_workers < threads:
                if self._io_executor is not None:
                    # Never shut a pool down while other queries may still
                    # hold it — retire it and reap on close().
                    self._retired_io_executors.append(self._io_executor)
                self._io_executor = ThreadPoolExecutor(
                    max_workers=threads,
                    thread_name_prefix=f"repro-io-{self.name}",
                )
                self._io_executor_workers = threads
            return self._io_executor

    def load_chunk(self, uri: str, table_name: str) -> Table:
        """Extract, transform and qualify one chunk (the chunk-access op).

        The chunk is the loader's columns under qualified names, the same
        schema a base-table scan of ``table_name`` has.
        """
        if self.chunk_loader is None:
            raise ExecutionError(
                "no chunk loader installed; register a repository first"
            )
        raw = self.chunk_loader.load(uri, table_name)
        base = self.catalog.table(table_name)
        if raw.schema.names != base.schema.names:
            raise ExecutionError(
                f"chunk loader returned schema {raw.schema.names} for "
                f"{table_name!r}, expected {base.schema.names}"
            )
        qualified = raw.with_prefix(table_name)
        self.chunk_stats.observe_table(uri, qualified)
        return qualified

    def fetch_chunk(self, uri: str, table_name: str) -> tuple[Table, str]:
        """One chunk through the two-tier recycler (the one chunk source).

        Returns ``(chunk, outcome)`` with the recycler's
        outcomes: ``loaded`` (fetched and decoded by :meth:`load_chunk`),
        ``rehydrated`` (mmap from the disk tier), ``hit`` or ``coalesced``
        (single-flight: a concurrent fetch of the same URI paid).
        """
        return self.recycler.get_or_load(
            uri, lambda u: self.load_chunk(u, table_name)
        )

    def scan_once(
        self, key: tuple, scan: Callable[[], Table], poll: Callable[[], None]
    ) -> tuple[Table, bool]:
        """Run ``scan()`` once for every concurrent caller with an equal key.

        The recycler single-flights each chunk decode; this does the same
        for a whole scan result, which is what the identical-query fan-out
        of a dashboard needs.  The first caller owns the scan and runs it;
        callers arriving while it runs wait outside the lock, calling
        ``poll()`` (their cancellation point) every 50 ms, and receive the
        owner's table.  The owner drops its entry before it publishes or
        fails, so nothing outlives the scan; a waiter whose owner failed
        claims the scan itself.  Returns ``(table, shared)``, ``shared``
        being True when another caller's scan produced the table.
        """
        while True:
            with self._scans_lock:
                flight = self._scans.get(key)
                owner = flight is None
                if flight is None:
                    flight = self._scans[key] = _InFlightScan()
            if owner:
                try:
                    table = flight.table = scan()
                finally:
                    with self._scans_lock:
                        del self._scans[key]
                    flight.done.set()  # table still None on failure
                return table, False
            while not flight.done.wait(_SCAN_WAIT_POLL_SECONDS):
                poll()
            if flight.table is not None:
                return flight.table, True

    def adopt_store_stats(self) -> int:
        """Recover decode-derived chunk statistics from store sidecars.

        Called when reopening a persistent workdir: every committed chunk
        carries its exact numeric ranges in the manifest, so a restarted
        database can prune by value without re-decoding anything.  Returns
        the number of chunks adopted.
        """
        adopted = 0
        for uri in sorted(self.chunk_store.uris()):
            if self.chunk_stats.is_enriched(uri):
                continue
            ranges = self.chunk_store.get_stats(uri)
            if ranges is None:
                continue
            self.chunk_stats.adopt_persisted(uri, ranges)
            adopted += 1
        return adopted

    # -- indexes -------------------------------------------------------------------

    def build_primary_key_indexes(self) -> float:
        """Build hash indexes for every declared primary key; returns seconds."""
        started = time.perf_counter()
        for base in self.catalog.tables():
            if not base.primary_key:
                continue
            index = HashIndex(base.name, base.primary_key)
            index.build(base.data if not base.paged else self._paged_image(base.name))
            self.hash_indexes[(base.name, tuple(base.primary_key))] = index
        return time.perf_counter() - started

    def build_foreign_key_indexes(self) -> float:
        """Build FK→PK join indexes for every declared constraint."""
        started = time.perf_counter()
        for base in self.catalog.tables():
            for constraint in base.foreign_keys:
                join_index = JoinIndex(
                    base.name,
                    constraint.columns,
                    constraint.ref_table,
                    constraint.ref_columns,
                )
                fk_image = (
                    base.data if not base.paged else self._paged_image(base.name)
                )
                ref = self.catalog.table(constraint.ref_table)
                pk_image = (
                    ref.data if not ref.paged else self._paged_image(ref.name)
                )
                join_index.build(fk_image, pk_image)
                self.join_indexes.append(join_index)
        return time.perf_counter() - started

    def _paged_image(self, table_name: str) -> Table:
        return self.paged_store.read_table(table_name)

    def index_nbytes(self) -> int:
        """Total footprint of all indexes (Table III's ``+keys`` delta)."""
        total = sum(ix.nbytes for ix in self.hash_indexes.values())
        total += sum(ix.nbytes for ix in self.join_indexes)
        return total

    # -- sizing ---------------------------------------------------------------------

    def table_num_rows(self, table_name: str) -> int:
        """Row count regardless of residency (in-memory or paged)."""
        base = self.catalog.table(table_name)
        if base.paged and self.paged_store.has_table(table_name):
            return self.paged_store.num_rows(table_name)
        return base.num_rows

    def table_nbytes(self, table_name: str) -> int:
        base = self.catalog.table(table_name)
        if base.paged:
            return self.paged_store.table_nbytes(table_name)
        return base.data.nbytes

    def database_nbytes(self) -> int:
        """Total stored bytes across all base tables."""
        return sum(self.table_nbytes(t.name) for t in self.catalog.tables())

    def metadata_nbytes(self) -> int:
        """Bytes of red (GMd + DMd) tables only — Table III's Lazy column."""
        return sum(
            self.table_nbytes(t.name)
            for t in self.catalog.tables()
            if t.kind.is_red
        )

    def cache_accounting(self) -> dict[str, int]:
        """Where cached bytes live: heap vs mmap vs disk, per component.

        ``recycler_resident`` is what the recycler budget charges;
        ``recycler_mapped`` is mmap-backed volume whose pages belong to the
        chunk-store files (counted once, under ``chunk_store``, on disk).
        """
        return {
            "buffer_pool": self.buffer_pool.bytes_cached,
            "recycler_resident": self.recycler.bytes_cached,
            "recycler_mapped": self.recycler.bytes_mapped,
            "chunk_store": self.chunk_store.nbytes,
        }

    @property
    def persistent(self) -> bool:
        """Whether the workdir outlives this object (caller-provided)."""
        return self._tempdir is None

    def close(self) -> None:
        # Detach the pools under the lock, then tear them down outside it:
        # shutdown(wait=True) joins worker threads, and a worker that
        # re-enters this database (chunk accounting, store commits) must
        # never find close() still holding the executor lock.
        with self._io_executor_lock:
            doomed_pools = list(self._retired_io_executors)
            self._retired_io_executors.clear()
            active_pool = self._io_executor
            self._io_executor = None
            self._io_executor_workers = 0
        for retired in doomed_pools:
            retired.shutdown(wait=False)
        if active_pool is not None:
            active_pool.shutdown(wait=True)
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
