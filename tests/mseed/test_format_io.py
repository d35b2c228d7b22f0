"""Tests for the xseed format, writer, reader, repository and CSV round trip."""

import os

import numpy as np
import pytest

from repro.engine.errors import FormatError
from repro.mseed import csvio, reader, writer
from repro.mseed.format import (
    SegmentHeader,
    VolumeHeader,
    pack_volume_header,
    unpack_volume_header,
)
from repro.mseed.repository import FileRepository
from repro.mseed.writer import SegmentData


@pytest.fixture()
def volume_path(tmp_path):
    rng = np.random.default_rng(3)
    samples_a = np.cumsum(rng.integers(-40, 40, 300)).astype(np.int64)
    samples_b = np.cumsum(rng.integers(-40, 40, 200)).astype(np.int64)
    path = str(tmp_path / "v.xseed")
    writer.write_volume(
        path,
        "IV",
        "FIAM",
        "",
        "HHZ",
        [
            SegmentData(0, 1_000_000, 100.0, samples_a),
            SegmentData(1, 5_000_000, 100.0, samples_b),
        ],
    )
    return path, samples_a, samples_b


class TestHeaderPacking:
    def test_roundtrip(self):
        header = VolumeHeader("IV", "FIAM", "00", "HHZ", "D", 10, 0, 3)
        assert unpack_volume_header(pack_volume_header(header)) == header

    def test_bad_magic(self):
        blob = b"NOPE" + pack_volume_header(
            VolumeHeader("IV", "S", "", "C", "D", 10, 0, 0)
        )[4:]
        with pytest.raises(FormatError):
            unpack_volume_header(blob)

    def test_truncated(self):
        with pytest.raises(FormatError):
            unpack_volume_header(b"XSD1")

    def test_segment_end_time(self):
        header = SegmentHeader(0, 1000, 100.0, 200, 0)
        assert header.end_time_ms == 1000 + 2000

    def test_segment_end_time_empty(self):
        assert SegmentHeader(0, 1000, 100.0, 0, 0).end_time_ms == 1000


class TestWriterReader:
    def test_metadata_only(self, volume_path):
        path, a, b = volume_path
        meta = reader.read_metadata(path)
        assert meta.volume.station == "FIAM"
        assert meta.volume.channel == "HHZ"
        assert meta.volume.n_segments == 2
        assert meta.total_samples == len(a) + len(b)
        assert [s.segment_no for s in meta.segments] == [0, 1]

    def test_full_decode(self, volume_path):
        path, a, b = volume_path
        segments = reader.read_samples(path)
        assert np.array_equal(segments[0].values, a)
        assert np.array_equal(segments[1].values, b)

    def test_sample_times_spacing(self, volume_path):
        path, a, _ = volume_path
        segments = reader.read_samples(path)
        times = segments[0].times_ms
        assert times[0] == 1_000_000
        assert times[1] - times[0] == 10  # 100 Hz -> 10ms

    def test_duplicate_segment_numbers_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            writer.write_volume(
                str(tmp_path / "bad.xseed"),
                "IV",
                "X",
                "",
                "C",
                [
                    SegmentData(0, 0, 1.0, np.asarray([1])),
                    SegmentData(0, 10, 1.0, np.asarray([2])),
                ],
            )

    def test_header_scan_cheaper_than_decode(self, tmp_path):
        # The structural property the whole paper relies on: metadata reads
        # touch far fewer bytes than full decodes.
        rng = np.random.default_rng(0)
        samples = np.cumsum(rng.integers(-50, 50, 200_000)).astype(np.int64)
        path = str(tmp_path / "big.xseed")
        total = writer.write_volume(
            path, "IV", "X", "", "C", [SegmentData(0, 0, 100.0, samples)]
        )
        meta = reader.read_metadata(path)
        header_bytes = (
            os.path.getsize(path) - meta.segments[0].payload_bytes
        )
        assert header_bytes < total / 100


class TestRepository:
    def test_listing_sorted_and_sized(self, tmp_path):
        for name in ("b", "a", "c"):
            writer.write_volume(
                str(tmp_path / f"{name}.xseed"),
                "IV",
                name.upper(),
                "",
                "C",
                [SegmentData(0, 0, 1.0, np.asarray([1, 2, 3]))],
            )
        (tmp_path / "ignore.txt").write_text("not a chunk")
        repo = FileRepository(str(tmp_path))
        chunks = repo.list_chunks()
        assert [os.path.basename(c.uri) for c in chunks] == [
            "a.xseed",
            "b.xseed",
            "c.xseed",
        ]
        assert repo.num_chunks == 3
        assert repo.total_bytes() == sum(c.size_bytes for c in chunks)

    def test_empty_repository(self, tmp_path):
        repo = FileRepository(str(tmp_path / "nothing"))
        assert not repo.exists()
        assert repo.list_chunks() == []


class TestCsvIo:
    def test_roundtrip(self, volume_path, tmp_path):
        path, a, b = volume_path
        csv_path = str(tmp_path / "out.csv")
        written = csvio.volume_to_csv(path, csv_path, file_id=7)
        assert written == os.path.getsize(csv_path)
        file_ids, segment_nos, times, values = csvio.parse_csv(csv_path)
        assert (file_ids == 7).all()
        assert len(values) == len(a) + len(b)
        assert np.array_equal(values[: len(a)], a)
        assert sorted(set(segment_nos.tolist())) == [0, 1]

    def test_csv_larger_than_xseed(self, volume_path, tmp_path):
        # Table III: textual serialization blows sizes up dramatically.
        path, _, _ = volume_path
        csv_path = str(tmp_path / "out.csv")
        csv_bytes = csvio.volume_to_csv(path, csv_path, file_id=1)
        assert csv_bytes > 3 * os.path.getsize(path)

    def test_bad_header_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header\n")
        with pytest.raises(FormatError):
            csvio.parse_csv(str(bad))

    def test_bad_row_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(csvio.CSV_HEADER + "\n1,2,3\n")
        with pytest.raises(FormatError):
            csvio.parse_csv(str(bad))
