"""Persistent on-disk chunk store: the second tier of the Recycler.

The in-memory Recycler makes just-in-time loading pay off only while the
process lives — every restart re-decodes every Steim chunk.  Following the
idea of pushing DBMS caching onto a shared storage tier (Odysseus/DFS) and
of a BDMS owning its on-disk representation instead of re-parsing external
files (AsterixDB's managed LSM storage), this module persists *decoded*
chunks as memory-mappable columnar files:

* one directory per chunk URI (named by a URI digest) holding one ``.npy``
  file per column plus a small JSON ``manifest.json``;
* fixed-width columns re-hydrate as zero-copy ``np.memmap`` arrays — a RAM
  miss becomes a page-cache read instead of a Steim re-decode;
* the manifest is written *last* and the whole directory is committed with
  one atomic rename, so a crash mid-spill leaves the store readable: an
  entry either exists completely or not at all, and partial/corrupt
  manifests are simply ignored on open.

Durability: payload files, the manifest and the staging directory are
fsynced *before* the commit rename (and the store root after it), so a
power loss cannot leave a "committed" entry pointing at zero-length or
torn column files.  Defense in depth on the read side: :meth:`get`
verifies each payload file's on-disk size against the manifest before
decoding; a mismatch is treated as a miss and the entry is quarantined
(moved aside, reaped at the next open), never served and never fatal.
Opening a store also sweeps leftovers of crashed writers — orphaned
``.tmp-*`` staging directories of dead processes, quarantined entries, and
``*.old`` directories from an interrupted replace (restored when the crash
lost the live entry, deleted otherwise).

The store is shared between threads (all index/stat mutations are under a
mutex) and between *processes*: writers on any process commit atomically,
and :meth:`get` falls back to a filesystem probe for entries committed by
another process after this store object scanned the directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import asdict, dataclass

import numpy as np

from .chunk_stats import compute_column_ranges, parse_ranges
from .errors import EngineError, StorageError
from .table import Field, Schema, Table
from .types import STRING, type_by_name
from .column import Column
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
from ..util.lock_sanitizer import make_lock

__all__ = ["ChunkStoreStats", "ChunkStore"]

MANIFEST_NAME = "manifest.json"
STORE_VERSION = 1
# Directory-name suffix of a torn entry moved aside by read verification
# (a replaced entry moved aside mid-commit carries OLD_SUFFIX).
QUARANTINE_SUFFIX = ".quarantine"
# A v1 ``.npy`` file opens with this magic and version, then a uint16
# header length: the payload starts at 10 + that length.
_NPY_V1_MAGIC = b"\x93NUMPY\x01\x00"
_NPY_PREFIX_BYTES = 10


def _npy_payload_offset(file_path: str, dtype: np.dtype, num_rows: int) -> int:
    """Where a fixed-width ``.npy`` payload starts, found without parsing.

    ``np.load`` parses the header dict with ``ast.literal_eval``, which
    CPython 3.11 was seen to fail with ``SystemError`` when pool threads
    rehydrate concurrently.  The manifest already names the dtype and row
    count, so only the v1 prefix is read: magic, version ``(1, 0)`` and
    the little-endian header length in bytes 8–9.  The payload must fill
    the file exactly from the header's end; anything else is a
    :class:`StorageError`, never a misread.
    """
    with open(file_path, "rb") as handle:
        prefix = handle.read(_NPY_PREFIX_BYTES)
        size = os.fstat(handle.fileno()).st_size
    if len(prefix) != _NPY_PREFIX_BYTES or prefix[:8] != _NPY_V1_MAGIC:
        raise StorageError(f"{file_path!r} is not a v1 .npy file")
    offset = _NPY_PREFIX_BYTES + int.from_bytes(prefix[8:], "little")
    if size != offset + num_rows * dtype.itemsize:
        raise StorageError(
            f"{file_path!r} is {size} bytes; a {offset}-byte header plus "
            f"{num_rows} rows of {dtype} is {offset + num_rows * dtype.itemsize}"
        )
    return offset


@dataclass
class ChunkStoreStats(Counters):
    """Counters of the disk tier (mirrors :class:`RecyclerStats`)."""

    spills: int = 0
    rehydrates: int = 0
    misses: int = 0
    bytes_spilled: int = 0
    bytes_rehydrated: int = 0
    invalid_entries: int = 0
    swept_dirs: int = 0
    restored_entries: int = 0


class ChunkStore:
    """A directory of decoded chunks, keyed by chunk URI.

    Layout::

        root/<digest>/manifest.json   # uri, loading cost, column directory
        root/<digest>/c<i>.npy        # one array per column
        root/.tmp-*                   # in-flight writes, never read

    The manifest is the commit point: data files are staged in a ``.tmp-*``
    directory, the manifest is written there last, and the directory is
    renamed into place.  Readers only trust directories whose manifest
    parses and matches the requested URI.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self.stats = ChunkStoreStats()
        os.makedirs(root, exist_ok=True)
        self._lock = make_lock("ChunkStore._lock")
        # uri -> payload bytes
        self._index: dict[str, int] = {}
        # Stats sidecars parsed during the startup scan, served (and
        # dropped) on first get_stats so open-time adoption does not
        # re-read every manifest it just parsed.
        self._scanned_stats: dict[str, dict[str, tuple[float, float]]] = {}
        self._scan()

    # -- keys and layout ---------------------------------------------------

    @staticmethod
    def _key(uri: str) -> str:
        return hashlib.sha1(uri.encode("utf-8")).hexdigest()[:20]

    def _entry_dir(self, uri: str) -> str:
        return os.path.join(self.root, self._key(uri))

    def _scan(self) -> None:
        """Sweep crash leftovers, then index every committed entry."""
        self._sweep()
        for name in sorted(os.listdir(self.root)):
            path = os.path.join(self.root, name)
            if not os.path.isdir(path) or self._is_non_entry(name):
                continue
            manifest = self._read_manifest(path)
            if manifest is None:
                self.stats.invalid_entries += 1
                continue
            payload = sum(int(c.get("nbytes", 0)) for c in manifest["columns"])
            self._index[manifest["uri"]] = payload
            ranges = parse_ranges(manifest.get("stats"))
            if ranges is not None:
                self._scanned_stats[manifest["uri"]] = ranges

    @staticmethod
    def _is_non_entry(name: str) -> bool:
        return (
            name.startswith(STAGING_PREFIX)
            or OLD_SUFFIX in name
            or name.endswith(QUARANTINE_SUFFIX)
        )

    def _sweep(self) -> None:
        """Garbage-collect what crashed writers left behind.

        * ``.tmp-*`` staging dirs whose writing process is gone are dead
          (live writers of other processes are left alone: their commit
          rename is still coming);
        * quarantined entries were torn when a reader moved them aside —
          the chunk is re-decodable from the repository, so reap them;
        * ``X.old`` dirs mark an interrupted replace: when ``X`` itself is
          missing the crash hit between the two renames and the old entry
          is the only surviving committed state — restore it; when ``X``
          exists the replace completed and the leftover is garbage.
        """
        for name in sorted(os.listdir(self.root)):
            path = os.path.join(self.root, name)
            if not os.path.isdir(path):
                continue
            if name.startswith(STAGING_PREFIX):
                if staging_pid_alive(name):
                    continue
                shutil.rmtree(path, ignore_errors=True)
                self.stats.swept_dirs += 1
            elif name.endswith(QUARANTINE_SUFFIX):
                shutil.rmtree(path, ignore_errors=True)
                self.stats.swept_dirs += 1
            elif OLD_SUFFIX in name:
                if settle_replaced(
                    self.root, name,
                    lambda old: self._read_manifest(old) is not None,
                ):
                    self.stats.restored_entries += 1
                else:
                    self.stats.swept_dirs += 1

    @staticmethod
    def _read_manifest(entry_dir: str) -> dict | None:
        """Parse an entry's manifest; None when absent, partial or corrupt."""
        path = os.path.join(entry_dir, MANIFEST_NAME)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError):
            return None
        if (
            not isinstance(manifest, dict)
            or manifest.get("version") != STORE_VERSION
            or "uri" not in manifest
            or not isinstance(manifest.get("columns"), list)
        ):
            return None
        return manifest

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def __contains__(self, uri: str) -> bool:
        # Always a manifest-only disk probe (no payload reads): the entry
        # may have been committed by another process after this store
        # scanned the directory — or deleted behind our back (a concurrent
        # ``clear()``), in which case the stale index entry is dropped.
        manifest = self._read_manifest(self._entry_dir(uri))
        if manifest is not None and manifest["uri"] == uri:
            return True
        with self._lock:
            self._index.pop(uri, None)
        return False

    def uris(self) -> set[str]:
        with self._lock:
            return set(self._index)

    @property
    def nbytes(self) -> int:
        """Total payload bytes of all indexed entries."""
        with self._lock:
            return sum(self._index.values())

    def get_stats(self, uri: str) -> dict[str, tuple[float, float]] | None:
        """The statistics sidecar of one committed entry, validated.

        Returns ``{column: (min, max)}`` or None when the entry is absent,
        predates the sidecar, or the sidecar is partial/corrupt — a broken
        sidecar never surfaces as (wrong) bounds, and never makes the
        chunk itself unreadable.  Sidecars parsed by the startup scan are
        served from memory once; later calls probe the filesystem (the
        entry may have been rewritten or deleted by another process).
        """
        with self._lock:
            scanned = self._scanned_stats.pop(uri, None)
        if scanned is not None:
            return scanned
        manifest = self._read_manifest(self._entry_dir(uri))
        if manifest is None or manifest["uri"] != uri:
            return None
        return parse_ranges(manifest.get("stats"))

    # -- write path --------------------------------------------------------

    def put(
        self, uri: str, table: Table, loading_cost: float,
        table_name: str | None = None,
    ) -> int:
        """Persist a decoded chunk; returns payload bytes written.

        The write is atomic *and durable*: data files and the manifest are
        staged in a temp directory, each fsynced as written, the staging
        directory itself is fsynced, and only then is it renamed into
        place (with the root directory fsynced after) — a power loss
        either loses the whole entry or none of it, never the payload
        bytes of a committed one.  A concurrent writer of the same URI
        wins benignly (content for one URI is identical by the
        loader-purity contract).
        """
        staging = staging_dir(self.root)
        payload = 0
        try:
            columns = []
            for position, (fld, column) in enumerate(
                zip(table.schema, table.columns)
            ):
                filename = f"c{position}.npy"
                file_path = os.path.join(staging, filename)
                with open(file_path, "wb") as handle:
                    if fld.dtype is STRING:
                        np.save(handle,
                                np.asarray(column.values, dtype=object),
                                allow_pickle=True)
                    else:
                        np.save(handle,
                                np.ascontiguousarray(column.values),
                                allow_pickle=False)
                    fsync_file(handle)
                nbytes = os.path.getsize(file_path)
                payload += nbytes
                columns.append(
                    {
                        "name": fld.name,
                        "dtype": fld.dtype.name,
                        "file": filename,
                        "nbytes": nbytes,
                    }
                )
            manifest = {
                "version": STORE_VERSION,
                "uri": uri,
                "table": table_name,
                "loading_cost": loading_cost,
                "num_rows": table.num_rows,
                "columns": columns,
                # Statistics sidecar: exact numeric min/max of the decoded
                # chunk, committed atomically with the data.  Readers that
                # fail to parse it treat it as absent (never wrong).
                "stats": {
                    name: [low, high]
                    for name, (low, high) in compute_column_ranges(
                        table
                    ).items()
                },
            }
            # The manifest is the commit marker within the staging dir; the
            # rename below is the commit marker within the store.
            with open(
                os.path.join(staging, MANIFEST_NAME), "w", encoding="utf-8"
            ) as handle:
                json.dump(manifest, handle)
                fsync_file(handle)
            fsync_dir(staging)
            final = self._entry_dir(uri)
            replace_dir(staging, final)
            fsync_dir(self.root)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        with self._lock:
            self._index[uri] = payload
            self._scanned_stats.pop(uri, None)  # superseded by this write
            self.stats.spills += 1
            self.stats.bytes_spilled += payload
        return payload

    # -- read path ---------------------------------------------------------

    def get(self, uri: str) -> tuple[Table, float] | None:
        """Re-hydrate one chunk, or None when the store has no valid entry.

        Fixed-width columns come back as zero-copy ``np.memmap`` arrays
        (``Column.is_mapped``); object (string) columns are materialized.
        """
        loaded = self._probe(uri)
        if loaded is None:
            with self._lock:
                self._index.pop(uri, None)  # drop if deleted behind us
                self.stats.misses += 1
            return None
        table, cost, payload = loaded
        with self._lock:
            self.stats.rehydrates += 1
            self.stats.bytes_rehydrated += payload
        return table, cost

    def _probe(self, uri: str) -> tuple[Table, float, int] | None:
        """Load an entry without touching hit/miss stats.

        Falls back to a filesystem probe when the in-memory index has no
        entry — another process sharing the store root may have
        committed it after this store object scanned the directory.
        Entries whose payload files do not match the manifest (size or
        row count) are quarantined, never served.
        """
        entry_dir = self._entry_dir(uri)
        manifest = self._read_manifest(entry_dir)
        if manifest is None or manifest["uri"] != uri:
            return None
        fields: list[Field] = []
        columns: list[Column] = []
        payload = 0
        try:
            for spec in manifest["columns"]:
                dtype = type_by_name(spec["dtype"])
                file_path = os.path.join(entry_dir, spec["file"])
                # Size check before decode: a torn or zero-length payload
                # (power loss predating the fsync discipline, bit rot,
                # manual truncation) must read as a miss, not an exception
                # from deep inside np.load.
                expected = int(spec.get("nbytes", -1))
                if expected >= 0 and os.path.getsize(file_path) != expected:
                    raise StorageError(
                        f"chunk payload {spec['file']!r} of {uri!r} is "
                        f"{os.path.getsize(file_path)} bytes, manifest "
                        f"says {expected}"
                    )
                if dtype is STRING:
                    values = np.load(file_path, allow_pickle=True)
                    values = np.asarray(values, dtype=object)
                else:
                    num_rows = int(manifest["num_rows"])
                    values = np.memmap(
                        file_path, dtype=dtype.numpy_dtype, mode="r",
                        offset=_npy_payload_offset(
                            file_path, dtype.numpy_dtype, num_rows
                        ),
                        shape=(num_rows,),
                    )
                fields.append(Field(spec["name"], dtype))
                columns.append(Column(dtype, values))
                payload += int(spec.get("nbytes", 0))
            table = Table(Schema(fields), columns)
            if table.num_rows != int(manifest.get("num_rows", table.num_rows)):
                raise StorageError(
                    f"chunk {uri!r} decoded {table.num_rows} rows, manifest "
                    f"says {manifest.get('num_rows')}"
                )
        except (FileNotFoundError, ValueError, KeyError, StorageError):
            # Definitively broken: missing/torn payloads, size or row-count
            # mismatches, unparseable npy content.
            self._quarantine(uri, entry_dir)
            return None
        except OSError:
            # Transient I/O failure (fd exhaustion, interrupt): the entry
            # may be perfectly valid — report a miss but leave it on disk
            # for the next attempt.
            with self._lock:
                self.stats.invalid_entries += 1
            return None
        with self._lock:
            self._index[uri] = payload
        return table, float(manifest.get("loading_cost", 0.0)), payload

    def _quarantine(self, uri: str, entry_dir: str) -> None:
        """Move a torn entry aside: served as a miss, reaped at next open.

        The chunk itself is never lost — it is re-decodable from the
        repository — so quarantine only has to guarantee the broken files
        are not read again and do not shadow a future rewrite of the URI.
        Re-verified before the rename: a concurrent writer may have
        re-committed a fresh valid entry at this path since the failed
        read, and a concurrent delete may have removed it entirely —
        neither is a torn entry to destroy or count.
        """
        with self._lock:
            self._index.pop(uri, None)
            self._scanned_stats.pop(uri, None)
        if not os.path.isdir(entry_dir):
            return  # concurrently deleted: nothing to quarantine or count
        with self._lock:
            self.stats.invalid_entries += 1
        if self._entry_is_intact(entry_dir):
            return  # concurrently re-committed: a valid entry lives here
        doomed = entry_dir + QUARANTINE_SUFFIX
        shutil.rmtree(doomed, ignore_errors=True)
        try:
            os.rename(entry_dir, doomed)
        except OSError:
            # Already gone or already moved by a concurrent reader.
            pass

    def _entry_is_intact(self, entry_dir: str) -> bool:
        """Manifest parses and every payload file matches its size.

        Fixed-width payloads must also carry a well-formed ``.npy`` prefix,
        the same check :meth:`_probe` makes before mapping them.
        """
        manifest = self._read_manifest(entry_dir)
        if manifest is None:
            return False
        try:
            for spec in manifest["columns"]:
                file_path = os.path.join(entry_dir, spec["file"])
                expected = int(spec.get("nbytes", -1))
                if expected >= 0 and os.path.getsize(file_path) != expected:
                    return False
                dtype = type_by_name(spec["dtype"])
                if dtype is not STRING:
                    _npy_payload_offset(
                        file_path, dtype.numpy_dtype, int(manifest["num_rows"])
                    )
        except (OSError, KeyError, ValueError, TypeError, EngineError):
            return False
        return True

    # -- maintenance -------------------------------------------------------

    def delete(self, uri: str) -> None:
        with self._lock:
            self._index.pop(uri, None)
            self._scanned_stats.pop(uri, None)
        shutil.rmtree(self._entry_dir(uri), ignore_errors=True)

    def clear(self) -> None:
        """Drop every entry (the fully-cold protocol of the experiments)."""
        with self._lock:
            self._index.clear()
            self._scanned_stats.clear()
        for name in os.listdir(self.root):
            shutil.rmtree(os.path.join(self.root, name), ignore_errors=True)

    def tier_stats(self) -> dict[str, int]:
        """JSON-friendly snapshot for ``repro cache`` and the benchmarks."""
        with self._lock:
            return {
                "entries": len(self._index),
                "bytes_stored": sum(self._index.values()),
                **asdict(self.stats),
            }
