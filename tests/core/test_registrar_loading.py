"""Tests for the Registrar and the five loading approaches."""

import pytest

from repro.core.loading import APPROACHES, prepare
from repro.core.registrar import Registrar, XseedChunkLoader, index_chunks
from repro.core.schema import create_seismology_schema
from repro.core.sommelier import SommelierDB
from repro.data import SCALE_SMALL, build_or_reuse
from repro.engine.database import Database
from repro.engine.errors import ExecutionError
from repro.mseed import reader


class TestRegistrar:
    def test_f_and_s_populated(self, lazy_db, tiny_repo):
        _, stats = tiny_repo
        f_table = lazy_db.database.catalog.table("F")
        s_table = lazy_db.database.catalog.table("S")
        assert f_table.num_rows == stats.num_files
        assert s_table.num_rows == stats.num_segments

    def test_file_ids_unique_and_dense(self, lazy_db):
        ids = lazy_db.database.catalog.table("F").data.column("file_id").to_list()
        assert sorted(ids) == list(range(len(ids)))

    def test_uri_station_consistency(self, lazy_db):
        f_data = lazy_db.database.catalog.table("F").data
        for uri, station in zip(
            f_data.column("uri").to_list(), f_data.column("station").to_list()
        ):
            assert station in uri

    def test_loader_installed(self, lazy_db):
        assert isinstance(lazy_db.database.chunk_loader, XseedChunkLoader)

    def test_serial_and_parallel_agree(self, tiny_repo, tmp_path):
        results = []
        for threads in (1, 4):
            database = Database(workdir=str(tmp_path / f"t{threads}"))
            create_seismology_schema(database)
            report = Registrar(database, threads=threads).register(tiny_repo[0])
            f_rows = database.catalog.table("F").data.to_dicts()
            results.append((report.num_files, report.num_segments, f_rows))
            database.close()
        assert results[0] == results[1]

    def test_registering_twice_appends_with_new_ids(self, tiny_repo, tmp_path):
        database = Database(workdir=str(tmp_path / "twice"))
        create_seismology_schema(database)
        registrar = Registrar(database, threads=1)
        registrar.register(tiny_repo[0])
        first_count = database.catalog.table("F").num_rows
        registrar.register(tiny_repo[0])
        ids = database.catalog.table("F").data.column("file_id").to_list()
        assert len(ids) == 2 * first_count
        assert len(set(ids)) == len(ids)
        database.close()

    def test_index_chunks_gives_the_loader_f_file_ids(self, tiny_repo, tmp_path):
        """The reopen path: F alone rebuilds the loader registration built."""
        registered = Database(workdir=str(tmp_path / "registered"))
        reindexed = Database(workdir=str(tmp_path / "reindexed"))
        try:
            create_seismology_schema(registered)
            Registrar(registered, threads=1).register(tiny_repo[0])
            f_data = registered.catalog.table("F").data
            index_chunks(reindexed, f_data)
            assert dict(reindexed.chunk_loader.file_ids) == dict(
                zip(f_data.column("uri").to_list(),
                    f_data.column("file_id").to_list())
            )
            assert dict(reindexed.chunk_loader.file_ids) == dict(
                registered.chunk_loader.file_ids
            )
            assert len(registered.chunk_stats) == 0  # nothing decoded yet
        finally:
            registered.close()
            reindexed.close()

    def test_loader_rejects_unknown_table(self, lazy_db):
        loader = lazy_db.database.chunk_loader
        uri = lazy_db.database.catalog.table("F").data.column("uri")[0]
        with pytest.raises(ExecutionError):
            loader.load(uri, "F")

    def test_loader_rejects_unknown_uri(self, lazy_db):
        with pytest.raises(ExecutionError):
            lazy_db.database.chunk_loader.load("/nope.xseed", "D")


def header_stats(uri: str, file_id: int):
    """Oracle: a chunk's header facts read straight from its headers."""
    segments = reader.read_metadata(uri).segments
    return file_id, sorted(
        (s.segment_no, s.start_time_ms, s.frequency, s.sample_count)
        for s in segments
    )


def seeded_stats(database: Database) -> dict:
    """The header facts registration seeds: ``F``'s file ids and ``S``'s
    segment rows, per chunk; stage one prunes with these."""
    f_data = database.catalog.table("F").data
    s_data = database.catalog.table("S").data
    uris = dict(
        zip(f_data.column("file_id").to_list(), f_data.column("uri").to_list())
    )
    segments = {file_id: [] for file_id in uris}
    for file_id, *segment in zip(
        s_data.column("file_id").to_list(),
        s_data.column("segment_no").to_list(),
        s_data.column("start_time").to_list(),
        s_data.column("frequency").to_list(),
        s_data.column("sample_count").to_list(),
    ):
        segments[file_id].append(tuple(segment))
    return {
        uri: (file_id, sorted(segments[file_id]))
        for file_id, uri in uris.items()
    }


@pytest.fixture(scope="module")
def small_repo(repo_base):
    """sf-3 small-scale repository: 48 files."""
    return build_or_reuse(repo_base, 3, SCALE_SMALL)


class TestIndexChunks:
    """F and S seed the same chunk facts the headers describe."""

    @pytest.mark.parametrize(
        "repo_fixture, chunks", [("tiny_repo", 8), ("small_repo", 48)]
    )
    def test_seeded_stats_equal_header_stats(
        self, request, tmp_path, repo_fixture, chunks
    ):
        repository, _ = request.getfixturevalue(repo_fixture)
        workdir = str(tmp_path / "db")
        registered, _ = prepare("lazy", repository, workdir=workdir)
        try:
            f_data = registered.database.catalog.table("F").data
            expected = {
                uri: header_stats(uri, file_id)
                for uri, file_id in zip(
                    f_data.column("uri").to_list(),
                    f_data.column("file_id").to_list(),
                )
            }
            assert len(expected) == chunks
            assert seeded_stats(registered.database) == expected
            file_ids = dict(registered.database.chunk_loader.file_ids)
        finally:
            registered.close()
        # The reopen path: the same facts, in a database that never read
        # a header.
        reopened = SommelierDB.open(workdir)
        try:
            assert seeded_stats(reopened.database) == expected
            assert dict(reopened.database.chunk_loader.file_ids) == file_ids
        finally:
            reopened.close()


class TestLoadingApproaches:
    def test_all_five_registered(self):
        assert set(APPROACHES) == {
            "lazy",
            "eager_plain",
            "eager_csv",
            "eager_index",
            "eager_dmd",
        }

    def test_unknown_approach(self, tiny_repo):
        with pytest.raises(ValueError):
            prepare("eager_turbo", tiny_repo[0])

    def test_lazy_loads_no_actual_data(self, tiny_repo):
        db, report = prepare("lazy", tiny_repo[0])
        assert db.database.catalog.table("D").num_rows == 0
        assert report.num_samples == 0
        assert "mseed_to_db" not in report.seconds
        db.close()

    def test_lazy_metadata_tiny_vs_repo(self, tiny_repo):
        db, report = prepare("lazy", tiny_repo[0])
        assert 0 < report.metadata_bytes < report.repo_bytes
        db.close()

    def test_eager_plain_loads_everything(self, tiny_repo):
        _, stats = tiny_repo
        db, report = prepare("eager_plain", tiny_repo[0])
        assert report.num_samples == stats.num_samples
        assert db.database.table_num_rows("D") == stats.num_samples
        db.close()

    def test_eager_plain_pages_out_d(self, tiny_repo):
        db, _ = prepare("eager_plain", tiny_repo[0])
        assert db.database.catalog.table("D").paged
        db.close()

    def test_eager_csv_buckets_and_sizes(self, tiny_repo):
        db, report = prepare("eager_csv", tiny_repo[0])
        assert report.bucket("mseed_to_csv") > 0
        assert report.bucket("csv_to_db") > 0
        # Table III shape: CSV text much larger than the compressed chunks.
        assert report.csv_bytes > 3 * report.repo_bytes
        db.close()

    def test_eager_csv_same_rows_as_plain(self, tiny_repo):
        db_csv, r_csv = prepare("eager_csv", tiny_repo[0])
        db_plain, r_plain = prepare("eager_plain", tiny_repo[0])
        assert r_csv.num_samples == r_plain.num_samples
        db_csv.close()
        db_plain.close()

    def test_eager_index_builds_indexes(self, tiny_repo):
        db, report = prepare("eager_index", tiny_repo[0])
        assert report.bucket("indexing") > 0
        assert report.index_bytes > 0
        assert len(db.database.join_indexes) == 3  # S->F, D->F, D->S
        db.close()

    def test_eager_dmd_materializes_h(self, tiny_repo):
        db, report = prepare("eager_dmd", tiny_repo[0])
        assert report.bucket("dmd") > 0
        assert db.database.catalog.table("H").num_rows > 0
        db.close()

    def test_db_larger_than_repo_for_eager(self, tiny_repo):
        # Decompression + timestamp materialization blow up storage.
        db, report = prepare("eager_plain", tiny_repo[0])
        assert report.db_bytes > report.repo_bytes
        db.close()

    def test_lazy_prep_faster_than_eager(self, tiny_repo):
        _, lazy_report = prepare("lazy", tiny_repo[0])
        _, eager_report = prepare("eager_csv", tiny_repo[0])
        assert lazy_report.total_seconds < eager_report.total_seconds

    def test_total_seconds_sums_buckets(self, tiny_repo):
        db, report = prepare("eager_index", tiny_repo[0])
        assert report.total_seconds == pytest.approx(
            sum(report.seconds.values())
        )
        db.close()
