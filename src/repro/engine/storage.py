"""Paged column storage and a budgeted buffer pool.

The paper's evaluation hinges on a memory hierarchy: while data plus indexes
fit in RAM (sf-1, sf-3) the eager variants answer queries quickly, but once
they outgrow memory (sf-9, sf-27) every scan pays for disk reads again and
query times blow up by one to two orders of magnitude (Section VI-C).

To reproduce that *shape* honestly in-process we persist base table columns
in fixed-size pages on disk and route all reads through a :class:`BufferPool`
with an LRU replacement policy and a configurable byte budget.  A "cold" run
starts from an empty pool (all reads hit disk); a "hot" run re-reads through
the pool and is fast only if the working set fits the budget — exactly the
paper's cold/hot protocol.

Pages store raw ``ndarray.tobytes()`` payloads for fixed-width types and a
length-prefixed encoding for strings.
"""

from __future__ import annotations

import os
import shutil
import struct
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .column import Column
from .errors import StorageError, TypeMismatchError
from .table import Schema, Table
from .types import STRING, DataType, type_by_name
from ..util.counters import Counters
from ..util.durable import (
    OLD_SUFFIX,
    STAGING_PREFIX,
    fsync_dir,
    fsync_file,
    replace_dir,
    settle_replaced,
    staging_dir,
    staging_pid_alive,
)
from ..util.lock_sanitizer import make_rlock

__all__ = ["PageId", "BufferPool", "PagedColumnStore", "PoolStats"]

DEFAULT_PAGE_ROWS = 8192


@dataclass(frozen=True)
class PageId:
    """Identifies one page of one column of one stored table."""

    table: str
    column: str
    page_no: int


@dataclass
class PoolStats(Counters):
    """Counters exposed by the buffer pool for benchmarks and tests."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bytes_read: int = 0

    @property
    def total_accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        if self.total_accesses == 0:
            return 0.0
        return self.hits / self.total_accesses


class BufferPool:
    """A byte-budgeted LRU cache of decoded column pages.

    The pool never holds more than ``budget_bytes`` of page payloads; loading
    a page larger than the budget is allowed (it becomes the only resident
    page and is evicted on the next load).  ``stats`` counts hits, misses and
    evictions so experiments can verify the memory cliff.

    Concurrent queries share one pool, so the page map and its accounting
    are guarded by a mutex; page decoding itself (``loader()``) runs outside
    the lock so concurrent misses on different pages overlap their I/O.
    """

    def __init__(self, budget_bytes: int = 256 * 1024 * 1024) -> None:
        if budget_bytes <= 0:
            raise StorageError("buffer pool budget must be positive")
        self.budget_bytes = budget_bytes
        self.stats = PoolStats()
        self._pages: "OrderedDict[PageId, np.ndarray]" = OrderedDict()
        self._bytes_cached = 0
        self._lock = make_rlock("BufferPool._lock")

    @property
    def bytes_cached(self) -> int:
        with self._lock:
            return self._bytes_cached

    @property
    def num_pages(self) -> int:
        with self._lock:
            return len(self._pages)

    def clear(self) -> None:
        """Drop every cached page (the \"restart the server\" of the paper)."""
        with self._lock:
            self._pages.clear()
            self._bytes_cached = 0

    def invalidate_table(self, table: str) -> None:
        """Drop cached pages belonging to one table (used on re-load)."""
        with self._lock:
            stale = [pid for pid in self._pages if pid.table == table]
            for pid in stale:
                self._bytes_cached -= self._page_nbytes(self._pages.pop(pid))

    def get(self, page_id: PageId, loader) -> np.ndarray:
        """Return the page, loading through ``loader()`` on a miss."""
        with self._lock:
            cached = self._pages.get(page_id)
            if cached is not None:
                self._pages.move_to_end(page_id)
                self.stats.hits += 1
                return cached
            self.stats.misses += 1
        page = loader()
        nbytes = self._page_nbytes(page)
        with self._lock:
            self.stats.bytes_read += nbytes
            self._admit(page_id, page, nbytes)
        return page

    def _admit(self, page_id: PageId, page: np.ndarray, nbytes: int) -> None:
        # Caller holds self._lock.  A page admitted twice by racing misses
        # replaces itself; the accounting stays exact either way.
        existing = self._pages.pop(page_id, None)
        if existing is not None:
            self._bytes_cached -= self._page_nbytes(existing)
        while self._bytes_cached + nbytes > self.budget_bytes and self._pages:
            _, evicted = self._pages.popitem(last=False)
            self._bytes_cached -= self._page_nbytes(evicted)
            self.stats.evictions += 1
        if nbytes <= self.budget_bytes:
            self._pages[page_id] = page
            self._bytes_cached += nbytes

    @staticmethod
    def _page_nbytes(page: np.ndarray) -> int:
        if page.dtype == object:
            return page.nbytes + sum(
                len(v) for v in page if isinstance(v, str)
            )
        return page.nbytes


class PagedColumnStore:
    """On-disk home for base-table columns, organized in fixed-row pages.

    Layout: ``root/<table>/<column>.pages`` holds the concatenated page
    payloads; an in-memory directory keeps per-page offsets (rebuilt from a
    sidecar ``.idx`` file on open, so stores survive process restarts).
    A table is written all or nothing: its files are staged and fsynced in
    a ``.tmp-*`` directory and swapped in with one directory replace, so a
    crash mid-write leaves the previous version readable.
    """

    MAGIC = b"RPST"

    def __init__(
        self,
        root: str,
        pool: BufferPool,
        page_rows: int = DEFAULT_PAGE_ROWS,
    ) -> None:
        if page_rows <= 0:
            raise StorageError("page_rows must be positive")
        self.root = root
        self.pool = pool
        self.page_rows = page_rows
        os.makedirs(root, exist_ok=True)
        # (table, column) -> (dtype, [(offset, length, rows)], total_rows)
        self._directory: dict[tuple[str, str], tuple[DataType, list, int]] = {}
        self._schemas: dict[str, Schema] = {}
        self._load_directory()

    # -- write path ----------------------------------------------------------

    def store_table(self, name: str, table: Table) -> int:
        """Persist every column of ``table``; returns bytes written.

        Replaces the table's previous version atomically and durably.
        """
        staging = staging_dir(self.root)
        written: dict[tuple[str, str], tuple[DataType, list, int]] = {}
        total = 0
        try:
            for fld, column in zip(table.schema, table.columns):
                pages, nbytes = self._write_column(staging, fld.name, column)
                written[(name, fld.name)] = (column.dtype, pages, len(column))
                total += nbytes
            fsync_dir(staging)
            replace_dir(staging, os.path.join(self.root, name))
            fsync_dir(self.root)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        self.pool.invalidate_table(name)
        for key in [k for k in self._directory if k[0] == name]:
            del self._directory[key]
        self._directory.update(written)
        self._schemas[name] = table.schema
        return total

    def _write_column(
        self, table_dir: str, column_name: str, column: Column
    ) -> tuple[list[tuple[int, int, int]], int]:
        """Write one column's pages and index into ``table_dir``."""
        safe = column_name.replace("/", "_")
        pages: list[tuple[int, int, int]] = []
        offset = 0
        with open(os.path.join(table_dir, f"{safe}.pages"), "wb") as handle:
            for start in range(0, max(len(column), 1), self.page_rows):
                chunk = column.values[start : start + self.page_rows]
                payload = self._encode(column.dtype, chunk)
                handle.write(payload)
                pages.append((offset, len(payload), len(chunk)))
                offset += len(payload)
            fsync_file(handle)
        with open(os.path.join(table_dir, f"{safe}.idx"), "wb") as handle:
            handle.write(self.MAGIC)
            name_blob = column_name.encode("utf-8")
            dtype_blob = column.dtype.name.encode("ascii")
            handle.write(struct.pack("<HH", len(name_blob), len(dtype_blob)))
            handle.write(name_blob)
            handle.write(dtype_blob)
            handle.write(struct.pack("<QI", len(column), len(pages)))
            for page in pages:
                handle.write(struct.pack("<QII", *page))
            fsync_file(handle)
        return pages, offset

    # -- read path -----------------------------------------------------------

    def has_table(self, name: str) -> bool:
        return name in self._schemas

    def restore_schema(self, name: str, schema: Schema) -> bool:
        """Adopt a table persisted by an earlier process.

        The ``.idx`` sidecars record per-column layout but not column
        *order*; the caller (catalog restore) supplies the schema.  Returns
        True when every schema column is present on disk — the table then
        becomes readable via :meth:`read_table` — and False otherwise.
        """
        if all(
            (name, field.name) in self._directory
            and self._directory[(name, field.name)][0] is field.dtype
            for field in schema
        ) and len(schema):
            self._schemas[name] = schema
            return True
        return False

    def schema(self, name: str) -> Schema:
        try:
            return self._schemas[name]
        except KeyError:
            raise StorageError(f"table {name!r} not in paged store") from None

    def num_rows(self, table: str) -> int:
        for (tbl, _), (_, _, rows) in self._directory.items():
            if tbl == table:
                return rows
        raise StorageError(f"table {table!r} not in paged store")

    def read_column(self, table: str, column_name: str) -> Column:
        """Read one full column through the buffer pool."""
        try:
            dtype, pages, total_rows = self._directory[(table, column_name)]
        except KeyError:
            raise StorageError(
                f"column {table}.{column_name} not in paged store"
            ) from None
        parts: list[np.ndarray] = []
        for page_no, (offset, length, rows) in enumerate(pages):
            page_id = PageId(table, column_name, page_no)
            loader = self._make_loader(table, column_name, dtype, offset, length, rows)
            parts.append(self.pool.get(page_id, loader))
        if not parts:
            return Column.empty(dtype)
        if len(parts) == 1:
            values = parts[0]
        else:
            values = np.concatenate(parts)
        if len(values) != total_rows:
            raise StorageError(
                f"column {table}.{column_name}: expected {total_rows} rows, "
                f"decoded {len(values)}"
            )
        return Column(dtype, values)

    def read_table(self, name: str, columns: Iterable[str] | None = None) -> Table:
        """Materialize a stored table (optionally a column subset)."""
        schema = self.schema(name)
        names = list(columns) if columns is not None else list(schema.names)
        cols = [self.read_column(name, n) for n in names]
        return Table(schema.select(names), cols)

    def table_nbytes(self, name: str) -> int:
        """Total stored payload bytes of a table."""
        total = 0
        for (tbl, _), (_, pages, _) in self._directory.items():
            if tbl == name:
                total += sum(length for _, length, _ in pages)
        return total

    def drop_table(self, name: str) -> None:
        self.pool.invalidate_table(name)
        self._schemas.pop(name, None)
        for key in [k for k in self._directory if k[0] == name]:
            del self._directory[key]
        table_dir = os.path.join(self.root, name)
        if os.path.isdir(table_dir):
            for entry in os.listdir(table_dir):
                os.unlink(os.path.join(table_dir, entry))
            os.rmdir(table_dir)

    def _make_loader(self, table, column_name, dtype, offset, length, rows):
        safe = column_name.replace("/", "_")
        path = os.path.join(self.root, table, f"{safe}.pages")

        def loader() -> np.ndarray:
            with open(path, "rb") as handle:
                handle.seek(offset)
                payload = handle.read(length)
            if len(payload) != length:
                raise StorageError(f"short read on {path} at {offset}")
            return self._decode(dtype, payload, rows)

        return loader

    # -- page codecs -----------------------------------------------------------

    @staticmethod
    def _encode(dtype: DataType, values: np.ndarray) -> bytes:
        if dtype is STRING:
            blobs = [str(v).encode("utf-8") for v in values]
            header = struct.pack("<I", len(blobs))
            body = b"".join(
                struct.pack("<I", len(blob)) + blob for blob in blobs
            )
            return header + body
        return np.ascontiguousarray(values, dtype=dtype.numpy_dtype).tobytes()

    @staticmethod
    def _decode(dtype: DataType, payload: bytes, rows: int) -> np.ndarray:
        if dtype is STRING:
            (count,) = struct.unpack_from("<I", payload, 0)
            cursor = 4
            out = np.empty(count, dtype=object)
            for i in range(count):
                (length,) = struct.unpack_from("<I", payload, cursor)
                cursor += 4
                out[i] = payload[cursor : cursor + length].decode("utf-8")
                cursor += length
            return out
        array = np.frombuffer(payload, dtype=dtype.numpy_dtype).copy()
        if len(array) != rows:
            raise StorageError("page payload row-count mismatch")
        return array

    # -- persistence of the page directory -------------------------------------

    def _load_directory(self) -> None:
        """Rebuild the page directory from ``.idx`` sidecars on open.

        Leftovers of a crashed :meth:`store_table` are settled first: dead
        writers' staging dirs are deleted, and a table moved aside by an
        interrupted replace is restored.  Tables found this way stay
        invisible to :meth:`has_table` until a catalog restore adopts them
        via :meth:`restore_schema` (the sidecar records column layout, not
        table schema order).  Unreadable sidecars are skipped — the store
        stays usable after a torn write.
        """
        if not os.path.isdir(self.root):
            return
        for name in sorted(os.listdir(self.root)):
            if name.startswith(STAGING_PREFIX):
                if not staging_pid_alive(name):
                    shutil.rmtree(
                        os.path.join(self.root, name), ignore_errors=True
                    )
            elif OLD_SUFFIX in name:
                settle_replaced(self.root, name)
        for table in sorted(os.listdir(self.root)):
            table_dir = os.path.join(self.root, table)
            if not os.path.isdir(table_dir) or table.startswith(STAGING_PREFIX):
                continue
            for filename in sorted(os.listdir(table_dir)):
                if not filename.endswith(".idx"):
                    continue
                try:
                    entry = self._read_index(os.path.join(table_dir, filename))
                except (OSError, StorageError, TypeMismatchError,
                        struct.error, ValueError):
                    continue
                column_name, dtype, pages, total_rows = entry
                self._directory[(table, column_name)] = (
                    dtype, pages, total_rows
                )

    def _read_index(
        self, path: str
    ) -> tuple[str, DataType, list[tuple[int, int, int]], int]:
        with open(path, "rb") as handle:
            if handle.read(len(self.MAGIC)) != self.MAGIC:
                raise StorageError(f"bad index magic in {path}")
            name_len, dtype_len = struct.unpack("<HH", handle.read(4))
            column_name = handle.read(name_len).decode("utf-8")
            dtype = type_by_name(handle.read(dtype_len).decode("ascii"))
            total_rows, num_pages = struct.unpack("<QI", handle.read(12))
            pages: list[tuple[int, int, int]] = []
            for _ in range(num_pages):
                pages.append(struct.unpack("<QII", handle.read(16)))
        return column_name, dtype, pages, total_rows
