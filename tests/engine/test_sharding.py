"""Sharded scatter-gather execution: identity, failure, cancellation.

Shard workers are real spawn processes (each imports numpy), so this file
keeps to a handful of end-to-end checks that reuse databases where
possible, with the cheap layout/validation plumbing tested without any
pool.
"""

from __future__ import annotations

import hashlib
import threading
import time

import pytest

from repro.core.loading import prepare
from repro.core.two_stage import TwoStageOptions
from repro.data.ingv import EPOCH_2010_MS
from repro.engine.database import ChunkDirectory
from repro.engine.errors import (
    ExecutionError,
    PlanError,
    QueryCancelled,
    StorageError,
)
from repro.engine.physical import CancelToken
from repro.engine.sharding import DEFAULT_BUCKET_MS, ShardLayout

MILLIS_PER_DAY = 24 * 3600 * 1000

T4 = (
    "SELECT COUNT(*) AS n, AVG(D.sample_value) AS mean FROM dataview "
    "WHERE F.station = 'ISK' AND F.channel = 'BHE'"
)
ALL_ROWS = (
    "SELECT D.sample_time, D.sample_value FROM dataview "
    f"WHERE D.sample_time >= {EPOCH_2010_MS} "
    f"AND D.sample_time < {EPOCH_2010_MS + MILLIS_PER_DAY}"
)
COUNT_ALL = "SELECT COUNT(*) AS n FROM dataview"


@pytest.fixture(scope="module")
def serial_expected(tiny_repo):
    """Serial reference results the sharded runs must match bit-for-bit."""
    db, _ = prepare("lazy", tiny_repo[0], options=TwoStageOptions(io_threads=1))
    try:
        return {
            sql: db.query(sql).table.to_dicts()
            for sql in (T4, ALL_ROWS, COUNT_ALL)
        }
    finally:
        db.close()


class TestLayout:
    def test_placement_is_deterministic_and_in_range(self):
        layout = ShardLayout(4)
        uris = [f"ingv://repo/ISK/BHE/day-{d}.mseed" for d in range(16)]
        unknown = ChunkDirectory()  # URIs F/S do not describe
        first = [layout.shard_of(uri, unknown) for uri in uris]
        assert first == [ShardLayout(4).shard_of(uri, unknown) for uri in uris]
        assert all(0 <= shard < 4 for shard in first)

    def test_split_preserves_assembly_and_fetch_order(self, lazy_db):
        report = lazy_db.query(COUNT_ALL).rewrite
        (plan,) = report.chunk_plans
        layout = ShardLayout(3)
        split = layout.split(plan, lazy_db.database.chunk_directory())
        schedule = plan.fetch_order or tuple(range(len(plan.chunks)))
        seen_assembly: list[int] = []
        for _shard_id, (assembly, fetch) in split.items():
            assert sorted(assembly) == list(assembly)  # plan order kept
            assert sorted(fetch) == sorted(assembly)  # same members
            pos = {i: n for n, i in enumerate(schedule)}
            assert [pos[i] for i in fetch] == sorted(pos[i] for i in fetch)
            seen_assembly.extend(assembly)
        assert sorted(seen_assembly) == list(range(len(plan.chunks)))

    def test_placement_hashes_station_and_start_bucket(self, lazy_db):
        """shard_of, read off the chunk directory, equals the hash of
        (station, earliest segment start // bucket) taken from F and S."""
        catalog = lazy_db.database.catalog
        files = catalog.table("F").data
        segments = catalog.table("S").data
        earliest: dict[int, int] = {}
        for file_id, start in zip(
            segments.column("file_id").values.tolist(),
            segments.column("start_time").values.tolist(),
        ):
            earliest[file_id] = min(start, earliest.get(file_id, start))
        layout = ShardLayout(4)
        directory = lazy_db.database.chunk_directory()
        uris = files.column("uri").values.tolist()
        assert len(uris) == 8
        for uri, station, file_id in zip(
            uris,
            files.column("station").values.tolist(),
            files.column("file_id").values.tolist(),
        ):
            key = f"{station}|{earliest[file_id] // layout.bucket_ms}"
            digest = hashlib.md5(key.encode("utf-8")).digest()[:8]
            expected = int.from_bytes(digest, "big") % 4
            assert layout.shard_of(uri, directory) == expected

    def test_checkpoint_roundtrip_and_malformed_payloads(self):
        layout = ShardLayout(2, bucket_ms=3600_000)
        restored = ShardLayout.from_json(layout.to_json())
        assert (restored.shards, restored.bucket_ms) == (2, 3600_000)
        assert ShardLayout.from_json(None) is None
        assert ShardLayout.from_json({"shards": "many"}) is None
        assert ShardLayout.from_json({"shards": 0}) is None
        default = ShardLayout.from_json({"shards": 3})
        assert default.bucket_ms == DEFAULT_BUCKET_MS

    def test_layout_validation(self):
        with pytest.raises(StorageError, match="at least one shard"):
            ShardLayout(0)
        with pytest.raises(StorageError, match="bucket"):
            ShardLayout(2, bucket_ms=0)


class TestOptionsPlumbing:
    def test_negative_shards_rejected(self):
        with pytest.raises(PlanError, match="shards must be >= 0"):
            TwoStageOptions(shards=-1)

    def test_shards_and_shared_scan_exclusive(self):
        with pytest.raises(PlanError, match="shared_scan and shards"):
            TwoStageOptions(shards=2, shared_scan=True)

    def test_sharding_requires_positive_count(self, lazy_db):
        with pytest.raises(ExecutionError, match="at least one shard"):
            lazy_db.database.sharding(0)


class TestBitIdentity:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_matches_serial_across_shard_counts(
        self, tiny_repo, serial_expected, shards
    ):
        db, _ = prepare(
            "lazy", tiny_repo[0], options=TwoStageOptions(shards=shards)
        )
        try:
            for sql, expected in serial_expected.items():
                result = db.query(sql)
                assert result.table.to_dicts() == expected
            # The scatter-gather path really ran: sub-plans were dispatched
            # and every merged chunk came from a shard worker.
            stats = db.stats
            assert stats.shard_subplans >= 1
            assert stats.chunks_from_shards > 0
            snapshot = db.planner_stats()["sharding"]
            assert snapshot["shards"] == shards
            assert snapshot["chunks_routed"] > 0
            # Satellite: every worker reports its active decode kernel.
            kernels = db.planner_stats()["decode_kernel"]["shard_workers"]
            assert kernels  # at least one worker spawned and reported
            assert all(isinstance(k, str) and k for k in kernels.values())
        finally:
            db.close()


class TestFailureAndCancellation:
    def test_worker_crash_mid_plan_raises_clean_error(self, tiny_repo):
        db, _ = prepare(
            "lazy", tiny_repo[0], options=TwoStageOptions(shards=2)
        )
        try:
            # Slow the loader *before* pools spawn (workers pickle it at
            # spawn), then bring every worker up so the kill is not racing
            # pool initialization.
            db.database.chunk_loader.io_delay_ms = 200.0
            coordinator = db.database.sharding(2)
            coordinator.warm_pools()

            outcome: list = []

            def run() -> None:
                try:
                    db.query(COUNT_ALL)
                    outcome.append("completed")
                except ExecutionError as exc:
                    outcome.append(str(exc))

            thread = threading.Thread(target=run)
            thread.start()
            time.sleep(0.3)  # mid-plan: workers are inside chunk fetches
            with coordinator._pool_lock:
                processes = [
                    process
                    for pool in coordinator._pools.values()
                    for process in pool._processes.values()
                ]
            assert processes
            for process in processes:
                process.kill()
            thread.join(timeout=30)
            assert not thread.is_alive()  # no hang
            assert len(outcome) == 1
            assert "worker died mid-plan" in outcome[0]
            assert coordinator.stats_snapshot()["worker_crashes"] >= 1

            # The coordinator reset the broken pools: the same database
            # answers the same query with fresh workers.
            db.database.chunk_loader.io_delay_ms = 0.0
            result = db.query(COUNT_ALL)
            assert result.table.num_rows == 1
        finally:
            db.close()

    def test_idle_worker_death_surfaces_at_submit(self, tiny_repo):
        db, _ = prepare(
            "lazy", tiny_repo[0], options=TwoStageOptions(shards=1)
        )
        try:
            coordinator = db.database.sharding(1)
            coordinator.warm_pools()
            with coordinator._pool_lock:
                processes = [
                    process
                    for pool in coordinator._pools.values()
                    for process in pool._processes.values()
                ]
            for process in processes:
                process.kill()
                process.join(timeout=10)
            # First query against the dead pool fails cleanly...
            with pytest.raises(ExecutionError, match="worker died mid-plan"):
                db.query(COUNT_ALL)
            # ...and the next one runs on a respawned worker.
            assert db.query(COUNT_ALL).table.num_rows == 1
        finally:
            db.close()

    def test_failed_shard_stops_siblings_without_a_token(self, tiny_repo):
        import os

        db, _ = prepare(
            "lazy", tiny_repo[0], options=TwoStageOptions(shards=2)
        )
        try:
            # Before the workers spawn (they pickle the loader): shard 0
            # no longer knows its chunks and fails at its first fetch,
            # while shard 1 is still inside a slow one.
            loader = db.database.chunk_loader
            loader.io_delay_ms = 150.0
            coordinator = db.database.sharding(2)
            directory = db.database.chunk_directory()
            owners = {
                uri: coordinator.layout.shard_of(uri, directory)
                for uri in list(loader._file_ids)
            }
            assert set(owners.values()) == {0, 1}
            for uri, owner in owners.items():
                if owner == 0:
                    del loader._file_ids[uri]
            coordinator.warm_pools()

            with pytest.raises(ExecutionError, match="never registered"):
                db.query(COUNT_ALL)  # no CancelToken
            assert coordinator.stats_snapshot()["cancel_broadcasts"] == 1
            assert os.listdir(os.path.join(coordinator.root, ".cancel")) == []
        finally:
            db.close()

    def test_cancellation_fans_out_to_all_shards(self, tiny_repo):
        db, _ = prepare(
            "lazy", tiny_repo[0], options=TwoStageOptions(shards=2)
        )
        try:
            db.database.chunk_loader.io_delay_ms = 150.0
            coordinator = db.database.sharding(2)
            coordinator.warm_pools()

            token = CancelToken()
            outcome: list = []

            def run() -> None:
                try:
                    db.query(COUNT_ALL, cancel=token)
                    outcome.append("completed")
                except QueryCancelled:
                    outcome.append("cancelled")

            thread = threading.Thread(target=run)
            thread.start()
            time.sleep(0.2)
            token.cancel()
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert outcome == ["cancelled"]
            # The parent broadcast the cancel sentinel to the workers.
            assert coordinator.stats_snapshot()["cancel_broadcasts"] >= 1

            # Workers unwound at a chunk boundary and stayed alive: the
            # next (token-free) query is served by the same pools.
            db.database.chunk_loader.io_delay_ms = 0.0
            result = db.query(COUNT_ALL)
            assert result.table.num_rows == 1
            assert (
                coordinator.stats_snapshot()["worker_crashes"] == 0
            )
        finally:
            db.close()


class TestPersistenceAndInvalidation:
    def test_checkpoint_reopen_restores_layout_warm(
        self, tiny_repo, serial_expected, tmp_path
    ):
        from repro.core.sommelier import SommelierDB

        workdir = str(tmp_path / "sharded")
        db, _ = prepare(
            "lazy",
            tiny_repo[0],
            workdir=workdir,
            options=TwoStageOptions(shards=2),
        )
        try:
            assert db.query(T4).table.to_dicts() == serial_expected[T4]
            db.checkpoint()
        finally:
            db.close()

        reopened = SommelierDB.open(workdir)
        try:
            assert reopened.options.shards == 2  # layout restored
            result = reopened.query(T4)
            assert result.table.to_dicts() == serial_expected[T4]
            # Warm restart: the shard workers re-hydrated their own spilled
            # stores instead of re-fetching and re-decoding.
            assert result.stats.chunks_rehydrated > 0
            assert result.stats.chunks_loaded == 0
        finally:
            reopened.close()

    def test_layout_change_keeps_rows(self, tiny_repo, serial_expected):
        """Rows are bit-identical at every shard count, so a reshard is not
        an input of any answer: cached results stay servable and executed
        ones match serial execution."""
        db, _ = prepare(
            "lazy",
            tiny_repo[0],
            options=TwoStageOptions(shards=2, result_cache=True),
        )
        try:
            first = db.query(T4)

            db._apply_shards(4)  # the restart/reconfigure path

            after = db.query(T4)
            assert after.table.to_dicts() == first.table.to_dicts()
            assert after.result_cache == "exact"
            executed = db.query(COUNT_ALL)
            assert executed.result_cache is None
            assert executed.table.to_dicts() == serial_expected[COUNT_ALL]
            sharding = db.planner_stats()["sharding"]
            assert (sharding["shards"], sharding["epoch"]) == (4, 2)
        finally:
            db.close()
