"""Failure injection: corrupt chunks, vanished files, poisoned caches.

A lazily loading system meets its repository at query time, long after
registration — these tests pin down how failures surface.
"""

import os

import numpy as np
import pytest

from repro import SommelierDB
from repro.data.ingv import EPOCH_2010_MS
from repro.engine.errors import EngineError, FormatError
from repro.mseed import writer
from repro.mseed.repository import FileRepository
from repro.mseed.writer import SegmentData

MILLIS_PER_DAY = 24 * 3600 * 1000


@pytest.fixture()
def small_repo(tmp_path):
    rng = np.random.default_rng(11)
    root = tmp_path / "repo"
    for station in ("AAA", "BBB"):
        samples = np.cumsum(rng.integers(-20, 20, 500)).astype(np.int64)
        writer.write_volume(
            str(root / f"{station}.xseed"),
            "IV",
            station,
            "",
            "HHZ",
            [SegmentData(0, EPOCH_2010_MS, 50.0, samples)],
        )
    return FileRepository(str(root))


def query_for(station):
    return (
        f"SELECT COUNT(D.sample_value) AS n FROM dataview "
        f"WHERE F.station = '{station}'"
    )


class TestCorruptChunks:
    def test_truncated_payload_raises_format_error(self, small_repo):
        db = SommelierDB.create()
        db.register_repository(small_repo)
        victim = [u for u in small_repo.iter_uris() if "AAA" in u][0]
        size = os.path.getsize(victim)
        with open(victim, "rb+") as handle:
            handle.truncate(size - 20)
        with pytest.raises(FormatError):
            db.query(query_for("AAA"))
        db.close()

    def test_other_chunks_unaffected(self, small_repo):
        db = SommelierDB.create()
        db.register_repository(small_repo)
        victim = [u for u in small_repo.iter_uris() if "AAA" in u][0]
        with open(victim, "rb+") as handle:
            handle.seek(0)
            handle.write(b"GARBAGE!")
        # BBB's chunk is intact; queries touching only it still work.
        result = db.query(query_for("BBB"))
        assert result.table.to_dicts()[0]["n"] == 500
        db.close()

    def test_registration_rejects_corrupt_header(self, tmp_path, small_repo):
        bogus = tmp_path / "repo" / "fake.xseed"
        bogus.write_bytes(b"\x00" * 64)
        db = SommelierDB.create()
        with pytest.raises(FormatError):
            db.register_repository(FileRepository(str(tmp_path / "repo")))
        db.close()


class TestVanishedFiles:
    def test_file_deleted_after_registration(self, small_repo):
        db = SommelierDB.create()
        db.register_repository(small_repo)
        victim = [u for u in small_repo.iter_uris() if "AAA" in u][0]
        os.unlink(victim)
        with pytest.raises((EngineError, OSError)):
            db.query(query_for("AAA"))
        db.close()

    def test_cached_chunk_survives_file_deletion(self, small_repo):
        db = SommelierDB.create()
        db.register_repository(small_repo)
        sql = query_for("AAA")
        first = db.query(sql)
        assert first.stats.chunks_loaded == 1
        victim = [u for u in small_repo.iter_uris() if "AAA" in u][0]
        os.unlink(victim)
        # Recycler still holds the chunk: the query answers from cache.
        second = db.query(sql)
        assert second.table.to_dicts() == first.table.to_dicts()
        db.close()


class TestCachePoisoning:
    def test_recycler_eviction_mid_workload_is_safe(self, small_repo):
        db = SommelierDB.create(recycler_bytes=4096)  # holds ~nothing
        db.register_repository(small_repo)
        sql = query_for("AAA")
        a = db.query(sql).table.to_dicts()
        b = db.query(sql).table.to_dicts()
        assert a == b

    def test_cache_scan_degrades_to_chunk_access(self, small_repo):
        """A chunk evicted between planning and execution reloads inline."""
        from repro.engine.chunk_planner import TIER_RESIDENT
        from repro.engine.physical import ExecutionContext, execute_plan

        db = SommelierDB.create()
        db.register_repository(small_repo)
        sql = query_for("AAA")
        expected = db.query(sql).table.to_dicts()
        uri = [u for u in small_repo.iter_uris() if "AAA" in u][0]
        compiled = db.compiler.compile(db.bind(sql))
        ctx = ExecutionContext(db.database)
        plan, report = db.compiler.plan_stage_two(compiled, ctx)
        (chunk,) = [c for p in report.chunk_plans for c in p.chunks]
        assert chunk.uri == uri and chunk.tier == TIER_RESIDENT
        # Evicted after the planner predicted a recycler hit:
        db.database.recycler.invalidate(uri)
        result = execute_plan(plan, ctx)
        assert result.to_dicts() == expected
        assert ctx.chunk_outcomes == {uri: "loaded"}
        assert ctx.stats.chunks_loaded == 1
        db.close()
