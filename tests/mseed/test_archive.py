"""Tests for internally-chunked archives and URI-based chunk access."""

import os

import numpy as np
import pytest

from repro.engine.errors import FormatError
from repro.mseed import reader, writer
from repro.mseed.archive import (
    ArchiveRepository,
    open_chunk,
    pack_archive,
    split_uri,
)
from repro.mseed.writer import SegmentData


@pytest.fixture()
def chunk_files(tmp_path):
    rng = np.random.default_rng(5)
    paths = []
    for i in range(3):
        samples = np.cumsum(rng.integers(-30, 30, 400)).astype(np.int64)
        path = str(tmp_path / f"chunk{i}.xseed")
        writer.write_volume(
            path,
            "IV",
            f"ST{i}",
            "",
            "HHZ",
            [SegmentData(0, 1_000_000 * (i + 1), 50.0, samples)],
        )
        paths.append(path)
    return paths


@pytest.fixture()
def archive(tmp_path, chunk_files):
    archive_path = str(tmp_path / "bundle.xar")
    pack_archive(archive_path, chunk_files)
    return archive_path


class TestUriSplitting:
    def test_plain_path(self):
        assert split_uri("/a/b.xseed") == ("/a/b.xseed", None)

    def test_member(self):
        assert split_uri("/a/b.xar#c.xseed") == ("/a/b.xar", "c.xseed")


class TestPackAndList:
    def test_listing(self, archive):
        repo = ArchiveRepository(archive)
        chunks = repo.list_chunks()
        assert repo.num_chunks == 3
        assert all("#chunk" in c.uri for c in chunks)
        assert repo.total_bytes() == sum(c.size_bytes for c in chunks)

    def test_entry_sizes_match_files(self, archive, chunk_files):
        repo = ArchiveRepository(archive)
        sizes = sorted(c.size_bytes for c in repo.list_chunks())
        assert sizes == sorted(os.path.getsize(p) for p in chunk_files)

    def test_duplicate_names_rejected(self, tmp_path, chunk_files):
        with pytest.raises(FormatError):
            pack_archive(
                str(tmp_path / "dup.xar"), [chunk_files[0], chunk_files[0]]
            )

    def test_bad_magic(self, tmp_path):
        bogus = tmp_path / "not.xar"
        bogus.write_bytes(b"NOPE1234")
        with pytest.raises(FormatError):
            ArchiveRepository(str(bogus)).list_chunks()


class TestReadingThroughArchive:
    def test_metadata_matches_file(self, archive, chunk_files):
        repo = ArchiveRepository(archive)
        member_uri = sorted(repo.iter_uris())[0]
        via_archive = reader.read_metadata(member_uri)
        via_file = reader.read_metadata(chunk_files[0])
        assert via_archive == via_file

    def test_samples_match_file(self, archive, chunk_files):
        repo = ArchiveRepository(archive)
        for uri, path in zip(sorted(repo.iter_uris()), chunk_files):
            a = reader.read_samples(uri)
            b = reader.read_samples(path)
            assert len(a) == len(b)
            for seg_a, seg_b in zip(a, b):
                assert np.array_equal(seg_a.values, seg_b.values)

    def test_missing_member(self, archive):
        with pytest.raises(FormatError):
            open_chunk(f"{archive}#nope.xseed").read()


class TestEndToEndArchiveRegistration:
    def test_register_and_query(self, archive, chunk_files):
        from repro import SommelierDB

        with SommelierDB.create() as db:
            report = db.register_repository(ArchiveRepository(archive))
            assert report.num_files == 3
            result = db.query(
                "SELECT COUNT(D.sample_value) AS n FROM dataview "
                "WHERE F.station = 'ST1'"
            )
            assert result.table.to_dicts()[0]["n"] == 400
            assert result.stats.chunks_loaded == 1
