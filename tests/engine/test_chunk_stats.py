"""Chunk statistics: catalog semantics and stats-sidecar round-trips
through the ChunkStore crash-safety paths."""

import json
import os

import numpy as np

from repro.engine import algebra
from repro.engine.chunk_stats import ChunkStatsCatalog, compute_column_ranges
from repro.engine.chunk_store import MANIFEST_NAME, ChunkStore
from repro.engine.column import Column
from repro.engine.physical import ExecutionContext, execute_plan
from repro.engine.table import Schema, Table
from repro.engine.types import INT64, STRING, TIMESTAMP
from repro.mseed import reader


def make_table(values, times, stations=None) -> Table:
    fields = [("D.sample_time", TIMESTAMP), ("D.sample_value", INT64)]
    columns = [
        Column(TIMESTAMP, np.asarray(times, dtype=np.int64)),
        Column(INT64, np.asarray(values, dtype=np.int64)),
    ]
    if stations is not None:
        fields.append(("D.station", STRING))
        columns.append(Column.from_values(STRING, stations))
    return Table(Schema.of(*fields), columns)


class TestComputeRanges:
    def test_exact_min_max_per_numeric_column(self):
        table = make_table([5, -3, 12], [100, 200, 300])
        ranges = compute_column_ranges(table)
        assert ranges["D.sample_value"] == (-3.0, 12.0)
        assert ranges["D.sample_time"] == (100.0, 300.0)

    def test_string_and_hidden_columns_skipped(self):
        table = make_table([1], [2], stations=["ISK"])
        ranges = compute_column_ranges(table)
        assert "D.station" not in ranges
        assert set(ranges) == {"D.sample_time", "D.sample_value"}

    def test_empty_table_yields_no_ranges(self):
        table = make_table([], [])
        assert compute_column_ranges(table) == {}


class TestCatalog:
    def test_registration_then_enrichment(self):
        catalog = ChunkStatsCatalog()
        assert catalog.get("u") is None
        assert not catalog.is_enriched("u")
        catalog.observe_table("u", make_table([7, -7], [5, 50]))
        entry = catalog.get("u")
        assert catalog.is_enriched("u")
        assert entry.ranges["D.sample_value"] == (-7.0, 7.0)

    def test_enrichment_is_idempotent_and_sticky(self):
        catalog = ChunkStatsCatalog()
        assert catalog.observe_table("u", make_table([1], [1]))
        assert not catalog.observe_table("u", make_table([999], [999]))
        # A later sidecar must not replace decode-derived truth either.
        assert not catalog.adopt_persisted("u", {"D.sample_value": (0.0, 1.0)})
        assert catalog.get("u").ranges["D.sample_value"] == (1.0, 1.0)

    def test_parse_ranges_rejects_nan_bounds(self):
        from repro.engine.chunk_stats import parse_ranges

        assert parse_ranges({"c": [0.0, float("nan")]}) is None
        assert parse_ranges({"c": [0.0, 1.0]}) == {"c": (0.0, 1.0)}

    def test_nan_columns_get_no_ranges(self):
        from repro.engine.column import Column as Col
        from repro.engine.types import FLOAT64

        table = Table(
            Schema.of(("D.sample_value", INT64), ("D.weight", FLOAT64)),
            [
                Column(INT64, np.asarray([1, 2], dtype=np.int64)),
                Col(FLOAT64, np.asarray([np.nan, 1.0])),
            ],
        )
        ranges = compute_column_ranges(table)
        assert "D.weight" not in ranges  # NaN extrema would mis-prune
        assert ranges["D.sample_value"] == (1.0, 2.0)


def segments_with_samples_in(uri: str, low: int, high: int) -> set[int]:
    """Segments with a decoded sample time in ``[low, high]``: the oracle
    segment skipping must match."""
    return {
        s.header.segment_no
        for s in reader.read_samples(uri)
        if ((s.times_ms >= low) & (s.times_ms <= high)).any()
    }


def segment_selection(plan: algebra.LogicalPlan) -> algebra.Select:
    """The one selection on ``S`` in a stage-one plan."""
    found = []

    def visit(node):
        if (
            isinstance(node, algebra.Select)
            and isinstance(node.child, algebra.Scan)
            and node.child.table_name == "S"
        ):
            found.append(node)
        for child in node.children():
            visit(child)

    visit(plan)
    (selection,) = found
    return selection


class TestZoneMapSegmentSkipping:
    """Sub-chunk granularity: stage one's selection on ``S`` keeps only
    the segments whose header span meets a time window."""

    def test_zone_pruning_matches_sample_times(self, lazy_db):
        f_data = lazy_db.database.catalog.table("F").data
        uri = f_data.column("uri")[0]
        file_id = f_data.column("file_id")[0]
        meta = reader.read_metadata(uri)
        assert len(meta.segments) > 1
        # A window covering only the second segment must keep exactly the
        # segments that have a sample inside it.
        target = meta.segments[1]
        low = target.start_time_ms
        high = target.end_time_ms - 1
        sql = (
            f"SELECT COUNT(*) AS n FROM D WHERE D.file_id = {file_id} "
            f"AND D.sample_time >= {low} AND D.sample_time <= {high}"
        )
        compiled = lazy_db.compiler.compile(lazy_db.bind(sql))
        segments = execute_plan(
            segment_selection(compiled.qf_plan),
            ExecutionContext(lazy_db.database),
        )
        kept = set(segments.column("S.segment_no").to_list())
        assert kept == segments_with_samples_in(uri, low, high)
        assert target.segment_no in kept


class TestStoreStatsSidecar:
    def test_sidecar_round_trip(self, tmp_path):
        store = ChunkStore(str(tmp_path))
        store.put("u", make_table([5, -2, 9], [10, 20, 30]))
        ranges = store.get_stats("u")
        assert ranges["D.sample_value"] == (-2.0, 9.0)
        assert ranges["D.sample_time"] == (10.0, 30.0)

    def test_absent_entry_has_no_stats(self, tmp_path):
        store = ChunkStore(str(tmp_path))
        assert store.get_stats("missing") is None

    def test_corrupt_sidecar_treated_as_absent_chunk_still_readable(
        self, tmp_path
    ):
        store = ChunkStore(str(tmp_path))
        store.put("u", make_table([1, 2], [3, 4]))
        manifest_path = os.path.join(store._entry_dir("u"), MANIFEST_NAME)
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        manifest["stats"] = {"D.sample_value": ["broken", None]}
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        assert store.get_stats("u") is None  # absent, never wrong
        loaded = store.get("u")  # the chunk itself stays readable
        assert loaded is not None
        assert loaded.num_rows == 2

    def test_inverted_sidecar_range_rejected(self, tmp_path):
        store = ChunkStore(str(tmp_path))
        store.put("u", make_table([1], [1]))
        manifest_path = os.path.join(store._entry_dir("u"), MANIFEST_NAME)
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        manifest["stats"] = {"D.sample_value": [9.0, 1.0]}
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        assert store.get_stats("u") is None

    def test_truncated_manifest_kills_entry_and_stats(self, tmp_path):
        store = ChunkStore(str(tmp_path))
        store.put("u", make_table([1], [1]))
        manifest_path = os.path.join(store._entry_dir("u"), MANIFEST_NAME)
        with open(manifest_path, "r", encoding="utf-8") as handle:
            text = handle.read()
        with open(manifest_path, "w", encoding="utf-8") as handle:
            handle.write(text[: len(text) // 2])  # crash mid-write
        assert store.get_stats("u") is None
        assert store.get("u") is None

    def test_adopt_store_stats_after_restart(self, tmp_path):
        from repro.engine.database import Database

        workdir = str(tmp_path / "db")
        first = Database(workdir=workdir)
        first.chunk_store.put("u", make_table([4, 8], [1, 2]))
        first.close()
        second = Database(workdir=workdir)
        assert second.adopt_store_stats() == 1
        entry = second.chunk_stats.get("u")
        assert second.chunk_stats.is_enriched("u")
        assert entry.ranges["D.sample_value"] == (4.0, 8.0)
        second.close()
