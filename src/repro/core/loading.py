"""The five loading approaches of the evaluation (Section VI-A).

* **eager_csv** — decode every mSEED file to CSV text, then bulk-load the
  CSV (MonetDB's ``COPY INTO``).  Pays full text serialization + parsing.
* **eager_plain** — decode mSEED files straight into the DBMS (the paper's
  extension of MonetDB that reads mSEED directly).
* **eager_index** — eager_plain + primary/foreign-key indexes (FK indexes
  are join indexes: building one *is* computing the join).
* **eager_dmd** — eager_index + eager computation of all derived metadata
  (fully materializing the H view).
* **lazy** — the paper's approach: extract only the metadata of every file
  (Registrar), leave D empty, derive DMd incrementally, load chunks during
  query evaluation and cache them in the Recycler.  No FK indexes — the
  constraints hold by construction on system-generated keys.

Every function returns ``(SommelierDB, LoadReport)``; the report carries the
per-bucket cost breakdown of Figure 6 and the size accounting of Table III.

Eager variants *page out* the actual-data table to disk-backed storage so
that query-time scans stream through the buffer pool: when data + indexes
exceed the pool budget, cold and hot scans both pay I/O — the memory cliff
of Figures 7–9.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from ..engine.table import TableBuilder
from ..mseed import csvio
from ..mseed.repository import FileRepository
from .registrar import XseedChunkLoader
from .sommelier import SommelierDB
from .two_stage import TwoStageOptions

__all__ = ["LoadReport", "APPROACHES", "prepare", "prepare_lazy",
           "prepare_eager_plain", "prepare_eager_csv",
           "prepare_eager_index", "prepare_eager_dmd"]

BUCKETS = ("mseed_to_csv", "csv_to_db", "mseed_to_db", "metadata",
           "indexing", "dmd")


@dataclass
class LoadReport:
    """Cost and size accounting for one loading approach.

    ``seconds`` buckets match Figure 6's stacked bars; the size fields match
    Table III's columns.
    """

    approach: str
    seconds: dict[str, float] = field(default_factory=dict)
    repo_bytes: int = 0
    csv_bytes: int = 0
    db_bytes: int = 0
    index_bytes: int = 0
    metadata_bytes: int = 0
    num_files: int = 0
    num_segments: int = 0
    num_samples: int = 0

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def bucket(self, name: str) -> float:
        return self.seconds.get(name, 0.0)


def _register_metadata(
    db: SommelierDB, repository: FileRepository, report: LoadReport,
    threads: int,
) -> None:
    registrar_report = db.register_repository(repository, threads=threads)
    report.seconds["metadata"] = registrar_report.seconds
    report.num_files = registrar_report.num_files
    report.num_segments = registrar_report.num_segments
    report.metadata_bytes = registrar_report.metadata_bytes
    report.repo_bytes = repository.total_bytes()


def _load_actual_from_mseed(db: SommelierDB, report: LoadReport) -> None:
    """Decode every chunk into D and page D out to disk (bulk load)."""
    started = time.perf_counter()
    loader = db.database.chunk_loader
    assert isinstance(loader, XseedChunkLoader)
    builder = TableBuilder(db.database.catalog.table("D").schema)
    for uri in sorted(loader.file_ids):
        chunk = loader.load(uri, "D")
        builder.append_columns([c.values for c in chunk.columns])
        report.num_samples += chunk.num_rows
    db.database.insert("D", builder.finish())
    db.database.page_out("D")
    report.seconds["mseed_to_db"] = time.perf_counter() - started
    report.db_bytes = db.database.database_nbytes()


def _load_actual_from_csv(db: SommelierDB, report: LoadReport) -> None:
    """mSEED → CSV files → parse → D (the eager_csv pipeline)."""
    loader = db.database.chunk_loader
    assert isinstance(loader, XseedChunkLoader)
    csv_dir = os.path.join(db.database.workdir, "csv")
    os.makedirs(csv_dir, exist_ok=True)

    to_csv_started = time.perf_counter()
    csv_paths: list[str] = []
    for uri in sorted(loader.file_ids):
        file_id = loader.file_id_of(uri)
        csv_path = os.path.join(csv_dir, f"{file_id}.csv")
        report.csv_bytes += csvio.volume_to_csv(uri, csv_path, file_id)
        csv_paths.append(csv_path)
    report.seconds["mseed_to_csv"] = time.perf_counter() - to_csv_started

    parse_started = time.perf_counter()
    builder = TableBuilder(db.database.catalog.table("D").schema)
    for csv_path in csv_paths:
        file_ids, segment_nos, times, values = csvio.parse_csv(csv_path)
        builder.append_columns([file_ids, segment_nos, times, values])
        report.num_samples += len(file_ids)
    db.database.insert("D", builder.finish())
    db.database.page_out("D")
    report.seconds["csv_to_db"] = time.perf_counter() - parse_started
    report.db_bytes = db.database.database_nbytes()


def _build_indexes(db: SommelierDB, report: LoadReport) -> None:
    started = time.perf_counter()
    db.database.build_primary_key_indexes()
    db.database.build_foreign_key_indexes()
    report.seconds["indexing"] = time.perf_counter() - started
    report.index_bytes = db.database.index_nbytes()


def _derive_all_dmd(db: SommelierDB, report: LoadReport) -> None:
    derivation = db.views.derive_all()
    report.seconds["dmd"] = derivation.seconds


# -- the five approaches -------------------------------------------------------------


def prepare_lazy(
    repository: FileRepository,
    workdir: str | None = None,
    buffer_pool_bytes: int = 256 * 1024 * 1024,
    recycler_bytes: int = 1 << 30,
    options: TwoStageOptions | None = None,
    threads: int = 8,
) -> tuple[SommelierDB, LoadReport]:
    """Metadata-only preparation: the paper's contribution."""
    report = LoadReport("lazy")
    db = SommelierDB.create(workdir, buffer_pool_bytes, recycler_bytes, options)
    _register_metadata(db, repository, report, threads)
    report.db_bytes = db.database.database_nbytes()
    return db, report


def prepare_eager_plain(
    repository: FileRepository,
    workdir: str | None = None,
    buffer_pool_bytes: int = 256 * 1024 * 1024,
    recycler_bytes: int = 1 << 30,
    options: TwoStageOptions | None = None,
    threads: int = 8,
) -> tuple[SommelierDB, LoadReport]:
    """Direct mSEED → DBMS bulk load of everything."""
    report = LoadReport("eager_plain")
    db = SommelierDB.create(workdir, buffer_pool_bytes, recycler_bytes, options)
    _register_metadata(db, repository, report, threads)
    _load_actual_from_mseed(db, report)
    return db, report


def prepare_eager_csv(
    repository: FileRepository,
    workdir: str | None = None,
    buffer_pool_bytes: int = 256 * 1024 * 1024,
    recycler_bytes: int = 1 << 30,
    options: TwoStageOptions | None = None,
    threads: int = 8,
) -> tuple[SommelierDB, LoadReport]:
    """mSEED → CSV → COPY INTO pipeline."""
    report = LoadReport("eager_csv")
    db = SommelierDB.create(workdir, buffer_pool_bytes, recycler_bytes, options)
    _register_metadata(db, repository, report, threads)
    _load_actual_from_csv(db, report)
    return db, report


def prepare_eager_index(
    repository: FileRepository,
    workdir: str | None = None,
    buffer_pool_bytes: int = 256 * 1024 * 1024,
    recycler_bytes: int = 1 << 30,
    options: TwoStageOptions | None = None,
    threads: int = 8,
) -> tuple[SommelierDB, LoadReport]:
    """eager_plain + primary and foreign key (join) indexes."""
    db, report = prepare_eager_plain(
        repository, workdir, buffer_pool_bytes, recycler_bytes, options,
        threads,
    )
    report.approach = "eager_index"
    _build_indexes(db, report)
    return db, report


def prepare_eager_dmd(
    repository: FileRepository,
    workdir: str | None = None,
    buffer_pool_bytes: int = 256 * 1024 * 1024,
    recycler_bytes: int = 1 << 30,
    options: TwoStageOptions | None = None,
    threads: int = 8,
) -> tuple[SommelierDB, LoadReport]:
    """eager_index + eagerly materialized derived metadata (full H view)."""
    db, report = prepare_eager_index(
        repository, workdir, buffer_pool_bytes, recycler_bytes, options,
        threads,
    )
    report.approach = "eager_dmd"
    _derive_all_dmd(db, report)
    return db, report


APPROACHES = {
    "lazy": prepare_lazy,
    "eager_plain": prepare_eager_plain,
    "eager_csv": prepare_eager_csv,
    "eager_index": prepare_eager_index,
    "eager_dmd": prepare_eager_dmd,
}


def prepare(
    approach: str, repository: FileRepository, **kwargs
) -> tuple[SommelierDB, LoadReport]:
    """Prepare a database with the named approach."""
    try:
        factory = APPROACHES[approach]
    except KeyError:
        raise ValueError(
            f"unknown loading approach {approach!r}; "
            f"choose from {sorted(APPROACHES)}"
        ) from None
    return factory(repository, **kwargs)
