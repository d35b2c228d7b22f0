#!/usr/bin/env python3
"""Extension tour: internally-chunked archives.

Section II-C notes that chunks do not always map to files — BAM files in
genomics are "huge files [that] are internally chunked".  We pack a whole
repository into one ``.xar`` archive and register it; every chunk keeps
its identity via ``archive#member`` URIs, and a query loads only the
members its metadata names, each decoded whole and cached like a file.

Run:  python examples/archives.py
"""

import os
import tempfile

from repro import SommelierDB
from repro.data import SCALE_TEST, build_or_reuse
from repro.mseed.archive import ArchiveRepository, pack_archive
from repro.workloads import QueryParams, t4_query
from repro.data.ingv import EPOCH_2010_MS

HOUR_MS = 3600 * 1000


def main() -> None:
    base = tempfile.mkdtemp(prefix="repro-archive-")
    repository, stats = build_or_reuse(base, scale_factor=1, scale=SCALE_TEST)

    # Pack the whole repository into a single internally-chunked archive.
    archive_path = os.path.join(base, "bundle.xar")
    chunk_paths = [c.uri for c in repository.list_chunks()]
    archive_bytes = pack_archive(archive_path, chunk_paths)
    archive = ArchiveRepository(archive_path)
    print(
        f"packed {stats.num_files} chunk files "
        f"({stats.repo_bytes:,} bytes) into one archive "
        f"({archive_bytes:,} bytes, {archive.num_chunks} members)"
    )

    db = SommelierDB.create()
    report = db.register_repository(archive)
    print(
        f"registered the archive: {report.num_files} chunks, "
        f"{report.num_segments} segments, {report.seconds * 1000:.1f}ms\n"
    )

    # A narrow two-hour window inside one day.
    sql = t4_query(
        QueryParams(
            station="FIAM",
            channel="HHZ",
            start_ms=EPOCH_2010_MS + 6 * HOUR_MS,
            end_ms=EPOCH_2010_MS + 8 * HOUR_MS,
        )
    )

    print("cold query (decode the needed members, cache them):")
    result = db.query(sql)
    print(
        f"  answer={result.table.to_dicts()}  "
        f"chunks loaded={result.stats.chunks_loaded}  "
        f"rows ingested={result.stats.chunk_rows_loaded:,}"
    )

    print("\nrepeat (served from the recycler):")
    result = db.query(sql)
    print(
        f"  answer={result.table.to_dicts()}  "
        f"chunks from cache={result.stats.chunks_from_cache}  "
        f"rows ingested={result.stats.chunk_rows_loaded:,}"
    )
    db.close()


if __name__ == "__main__":
    main()
