"""Catalog write versions and the chunk directory derived from them."""

from __future__ import annotations

import sys
import threading

from repro.core.loading import prepare
from repro.core.prefetch import WorkloadPrefetcher
from repro.core.sommelier import SommelierDB
from repro.engine.catalog import TableKind


class TestWriteVersions:
    def test_every_write_path_takes_a_fresh_version(self, lazy_db):
        database = lazy_db.database
        segments = database.catalog.table("S")
        rows = segments.data.slice(0, 2)
        seen = {segments.version}
        for write in (
            lambda: segments.append(rows),
            lambda: segments.replace(rows),
            lambda: segments.truncate(),
            lambda: database.insert("S", rows),
            lambda: database.replace("S", rows),
        ):
            write()
            assert segments.version not in seen
            seen.add(segments.version)

    def test_paged_writes_take_a_fresh_version(self, lazy_db):
        database = lazy_db.database
        rows = database.catalog.table("S").data.slice(0, 2)
        database.page_out("S")
        paged = database.catalog.table("S")
        before = paged.version
        database.insert("S", rows)
        after_insert = paged.version
        database.replace("S", rows)
        assert len({before, after_insert, paged.version}) == 3

    def test_actual_tables_depend_on_the_given_metadata(self, lazy_db):
        catalog = lazy_db.database.catalog
        assert [name for name, _ in catalog.versions(["D"])] == ["D", "F", "S"]
        assert [name for name, _ in catalog.versions(["H"])] == ["H"]
        before = catalog.versions(["D"])
        catalog.table("F").append(catalog.table("F").data.slice(0, 1))
        assert catalog.versions(["D"]) != before


class TestChunkDirectory:
    def test_f_then_s_inserts_index_every_uri(self, tiny_repo):
        """The registrar writes F before S; a directory read in between
        must not stick once S lands."""
        source, _ = prepare("lazy", tiny_repo[0])
        target = SommelierDB.create()
        try:
            catalog = source.database.catalog
            files = catalog.table("F").data
            target.database.set_chunk_loader(source.database.chunk_loader)
            prefetcher = WorkloadPrefetcher(target.database)
            day0, day1 = sorted(
                uri
                for uri, station in zip(
                    files.column("uri").values.tolist(),
                    files.column("station").values.tolist(),
                )
                if station == "ISK"
            )
            target.database.insert("F", files)
            assert prefetcher.note_query(1, [day0]) == []  # S not yet in
            target.database.insert("S", catalog.table("S").data)
            assert prefetcher.note_query(1, [day0]) == [day1]
            prefetcher.wait_idle()
            directory = target.database.chunk_directory()
            assert sorted(directory.entries) == sorted(
                files.column("uri").values.tolist()
            )
        finally:
            source.close()
            target.close()

    def test_rebuilt_only_when_f_or_s_is_written(self, lazy_db):
        database = lazy_db.database
        first = database.chunk_directory()
        lazy_db.query("SELECT COUNT(*) AS n FROM dataview")
        assert database.chunk_directory() is first
        database.catalog.table("H").truncate()
        assert database.chunk_directory() is first
        segments = database.catalog.table("S")
        segments.replace(segments.data)
        rebuilt = database.chunk_directory()
        assert rebuilt is not first
        assert rebuilt.entries == first.entries
        assert rebuilt.successors == first.successors


class TestConcurrentWrites:
    def test_versions_unique_and_directory_never_stale(self, lazy_db):
        """Writers on their own tables never share a version; readers
        racing writes of S never leave a directory tagged current while
        it holds older rows."""
        database = lazy_db.database
        catalog = database.catalog
        segments = catalog.table("S")
        full = segments.data
        partial = full.slice(0, 1)
        names = [f"W{i}" for i in range(4)]
        for name in names:
            catalog.create_table(name, segments.schema, TableKind.DERIVED)
        seen: dict[str, list[int]] = {name: [] for name in names}

        def write(name: str) -> None:
            table = catalog.table(name)
            for _ in range(200):
                table.append(partial)
                seen[name].append(table.version)

        def flip_s() -> None:
            for _ in range(100):
                segments.replace(partial)
                segments.replace(full)

        def read() -> None:
            for _ in range(300):
                database.chunk_directory()

        threads = [threading.Thread(target=write, args=(n,)) for n in names]
        threads += [threading.Thread(target=flip_s)]
        threads += [threading.Thread(target=read) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        versions = [v for vs in seen.values() for v in vs]
        assert len(set(versions)) == len(versions) == 4 * 200
        uris = catalog.table("F").data.column("uri").values.tolist()
        assert sorted(database.chunk_directory().entries) == sorted(uris)
