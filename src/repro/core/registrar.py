"""The Registrar: eager loading of given metadata (paper Section V-1).

When a file repository is registered, the Registrar iterates over all its
files, extracts the given metadata from the headers and bulk-loads it into
``F`` and ``S``.  Like MonetDB's implementation, extraction parallelizes
over files (a thread pool; header reads are I/O bound).

Actual data is *not* touched — this is the whole point.  F and S are the
one chunk catalog: stage one reads them to decide which chunks a query
needs, and :func:`index_chunks` derives from ``F`` the
:class:`XseedChunkLoader`'s file ids (``chunk-access`` operators later
ingest individual chunks through it), at registration and again when a
checkpoint is reopened.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from ..engine.column import Column
from ..engine.database import Database
from ..engine.errors import ExecutionError
from ..engine.table import Field, Schema, Table, TableBuilder
from ..engine.types import INT64, TIMESTAMP
from ..mseed import reader
from ..mseed.repository import FileRepository

# Unqualified schema of the rows a chunk contributes to table D.
_CHUNK_SCHEMA = Schema(
    [
        Field("file_id", INT64),
        Field("segment_no", INT64),
        Field("sample_time", TIMESTAMP),
        Field("sample_value", INT64),
    ]
)

__all__ = ["RegistrarReport", "XseedChunkLoader", "Registrar", "index_chunks"]


@dataclass(frozen=True)
class RegistrarReport:
    """Outcome of registering one repository."""

    num_files: int
    num_segments: int
    seconds: float
    metadata_bytes: int


class XseedChunkLoader:
    """Chunk-access strategy: full decode of one xseed file into D rows.

    The URI → file_id mapping lives in ``F``; :func:`index_chunks` gives
    the loader its copy (file ids are system-generated, which is why the
    paper can drop FK verification for lazy loading: the keys are correct
    by construction).

    ``io_delay_ms`` models a remote repository (the paper's INGV archive
    sits on network storage): every chunk fetch blocks that long before
    decoding.  Like :meth:`Database.drop_caches` it is a measurement knob —
    concurrency benchmarks use it to reproduce the latency-bound serving
    regime on hardware where local files are page-cache warm.
    """

    def __init__(self, io_delay_ms: float = 0.0) -> None:
        self._file_ids: dict[str, int] = {}
        self.io_delay_ms = io_delay_ms

    @property
    def file_ids(self) -> Mapping[str, int]:
        """Every registered chunk URI and its file id (read-only view)."""
        return MappingProxyType(self._file_ids)

    def assign(self, uri: str, file_id: int) -> None:
        self._file_ids[uri] = file_id

    def file_id_of(self, uri: str) -> int:
        try:
            return self._file_ids[uri]
        except KeyError:
            raise ExecutionError(f"chunk {uri!r} was never registered") from None

    def load(self, uri: str, table_name: str) -> Table:
        if table_name != "D":
            raise ExecutionError(
                f"xseed chunks provide rows for table 'D', not {table_name!r}"
            )
        file_id = self.file_id_of(uri)  # unknown URIs fail before any I/O
        if self.io_delay_ms > 0:
            time.sleep(self.io_delay_ms / 1000.0)
        return self._build_rows(file_id, reader.read_samples(uri))

    @staticmethod
    def _build_rows(file_id: int, segments) -> Table:
        total = sum(len(s.values) for s in segments)
        file_ids = np.full(total, file_id, dtype=np.int64)
        segment_nos = np.empty(total, dtype=np.int64)
        times = np.empty(total, dtype=np.int64)
        values = np.empty(total, dtype=np.int64)
        cursor = 0
        for segment in segments:
            n = len(segment.values)
            segment_nos[cursor : cursor + n] = segment.header.segment_no
            times[cursor : cursor + n] = segment.times_ms
            values[cursor : cursor + n] = segment.values
            cursor += n
        return Table(
            _CHUNK_SCHEMA,
            [
                Column(INT64, file_ids),
                Column(INT64, segment_nos),
                Column(TIMESTAMP, times),
                Column(INT64, values),
            ],
        )


class Registrar:
    """Extracts and bulk-loads GMd for every chunk of a repository."""

    def __init__(self, database: Database, threads: int = 8) -> None:
        self.database = database
        self.threads = max(1, threads)

    def register(self, repository: FileRepository) -> RegistrarReport:
        """Scan all chunk headers and populate F and S.

        File ids are assigned in sorted-URI order starting after any
        already-registered files, so registering two repositories into one
        database is well-defined.
        """
        started = time.perf_counter()
        uris = [chunk.uri for chunk in repository.list_chunks()]
        if self.threads > 1 and len(uris) > 1:
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                metadata = list(pool.map(reader.read_metadata, uris))
        else:
            metadata = [reader.read_metadata(uri) for uri in uris]

        next_file_id = self.database.table_num_rows("F")
        f_builder = TableBuilder(self.database.catalog.table("F").schema)
        s_builder = TableBuilder(self.database.catalog.table("S").schema)
        num_segments = 0
        for offset, (uri, file_meta) in enumerate(zip(uris, metadata)):
            file_id = next_file_id + offset
            volume = file_meta.volume
            f_builder.append_row(
                (
                    file_id,
                    uri,
                    volume.network,
                    volume.station,
                    volume.location,
                    volume.channel,
                    volume.quality,
                    volume.encoding,
                    volume.byte_order,
                )
            )
            for segment in file_meta.segments:
                s_builder.append_row(
                    (
                        file_id,
                        segment.segment_no,
                        segment.start_time_ms,
                        segment.frequency,
                        segment.sample_count,
                    )
                )
                num_segments += 1
        files, segments = f_builder.finish(), s_builder.finish()
        self.database.insert("F", files)
        self.database.insert("S", segments)
        index_chunks(self.database, files)
        elapsed = time.perf_counter() - started
        return RegistrarReport(
            num_files=len(uris),
            num_segments=num_segments,
            seconds=elapsed,
            metadata_bytes=self.database.metadata_nbytes(),
        )


def index_chunks(database: Database, files: Table) -> None:
    """Give the installed :class:`XseedChunkLoader` (installing one if
    missing) every ``(uri, file_id)`` of rows of ``F``."""
    loader = database.chunk_loader
    if not isinstance(loader, XseedChunkLoader):
        loader = XseedChunkLoader()
        database.set_chunk_loader(loader)
    for uri, file_id in zip(
        files.column("uri").values.tolist(),
        files.column("file_id").values.tolist(),
    ):
        loader.assign(uri, file_id)
