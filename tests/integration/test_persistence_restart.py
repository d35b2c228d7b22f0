"""Warm restart: SommelierDB.open over a persistent workdir.

The restart contract: after a checkpointing close, reopening the workdir
(1) restores the catalog pointers — no re-registration needed — and
(2) serves stage two from the persistent chunk store — no re-decode.
"""

import json
import multiprocessing
import os
import shutil

import numpy as np
import pytest

from repro.core.loading import prepare
from repro.core.sommelier import SommelierDB
from repro.core.two_stage import TwoStageOptions
from repro.engine.errors import ExecutionError
from repro.mseed.format import segment_end_ms

T4 = (
    "SELECT COUNT(*) AS n, AVG(D.sample_value) AS mean FROM dataview "
    "WHERE F.station = 'ISK' AND F.channel = 'BHE'"
)
T1 = "SELECT COUNT(*) AS n FROM gmdview WHERE F.station = 'ISK'"


class TestWarmRestart:
    def test_reopen_serves_without_redecoding(self, tiny_repo, tmp_path):
        workdir = str(tmp_path / "db")
        db, _ = prepare("lazy", tiny_repo[0], workdir=workdir)
        first = db.query(T4)
        assert first.stats.chunks_loaded > 0
        db.close()  # persistent workdir: checkpoints + flushes warm tier

        reopened = SommelierDB.open(workdir)
        second = reopened.query(T4)
        assert second.table == first.table
        assert second.stats.chunks_loaded == 0
        assert second.stats.chunks_rehydrated == first.stats.chunks_loaded
        reopened.close()

    def test_reopen_restores_metadata_without_repository(self, tiny_repo, tmp_path):
        """Stage one (metadata-only) works from the checkpoint alone."""
        workdir = str(tmp_path / "db")
        db, _ = prepare("lazy", tiny_repo[0], workdir=workdir)
        expected = db.query(T1).table
        db.close()

        reopened = SommelierDB.open(workdir)
        assert reopened.query(T1).table == expected
        # The loader's URI → file-id map is rebuilt from the restored F.
        loader = reopened.database.chunk_loader
        assert loader is not None and len(loader.file_ids) > 0
        reopened.close()

    def test_double_restart(self, tiny_repo, tmp_path):
        workdir = str(tmp_path / "db")
        db, _ = prepare("lazy", tiny_repo[0], workdir=workdir)
        expected = db.query(T4).table
        db.close()
        for _ in range(2):
            db = SommelierDB.open(workdir)
            result = db.query(T4)
            assert result.table == expected
            assert result.stats.chunks_loaded == 0
            db.close()

    def test_open_on_empty_workdir_is_fresh(self, tmp_path):
        db = SommelierDB.open(str(tmp_path / "nothing"))
        assert db.database.chunk_loader is None
        assert db.database.table_num_rows("F") == 0
        db.close()

    def test_corrupt_checkpoint_opens_fresh(self, tiny_repo, tmp_path):
        workdir = str(tmp_path / "db")
        db, _ = prepare("lazy", tiny_repo[0], workdir=workdir)
        db.query(T4)
        db.close()
        with open(os.path.join(workdir, "catalog.json"), "w") as handle:
            handle.write('{"version": 1, "tab')  # torn write
        reopened = SommelierDB.open(workdir)  # no crash, cold catalog
        assert reopened.database.table_num_rows("F") == 0
        reopened.close()

    def test_closed_database_rejects_queries(self, tiny_repo, tmp_path):
        db, _ = prepare("lazy", tiny_repo[0], workdir=str(tmp_path / "db"))
        db.close()
        db.close()  # idempotent
        with pytest.raises(ExecutionError, match="closed"):
            db.query(T1)

    def test_ephemeral_database_does_not_checkpoint(self, tiny_repo):
        db, _ = prepare("lazy", tiny_repo[0])  # tempdir workdir
        workdir = db.database.workdir
        db.query(T4)
        db.close()
        assert not os.path.exists(workdir)  # tempdir cleaned, nothing leaks

    def test_drop_caches_still_means_fully_cold(self, tiny_repo, tmp_path):
        """The paper's cold protocol clears *both* tiers."""
        db, _ = prepare("lazy", tiny_repo[0], workdir=str(tmp_path / "db"))
        first = db.query(T4)
        db.database.recycler.flush_to_store()
        db.drop_caches()
        again = db.query(T4)
        assert again.stats.chunks_loaded == first.stats.chunks_loaded
        assert again.stats.chunks_rehydrated == 0
        db.close()

    def test_eager_restart_restores_paged_actual_data(self, tiny_repo, tmp_path):
        """An eager database's paged-out D survives the restart.

        A plain open comes back eager: stage two scans the restored D.
        """
        workdir = str(tmp_path / "db")
        db, _ = prepare("eager_plain", tiny_repo[0], workdir=workdir)
        expected = db.query(T4).table
        rows = db.database.table_num_rows("D")
        assert rows > 0
        db.close()

        reopened = SommelierDB.open(workdir)
        assert reopened.database.table_num_rows("D") == rows
        result = reopened.query(T4)
        assert result.table == expected
        assert result.stats.chunks_loaded == 0
        assert not result.two_stage
        reopened.close()

    def test_restart_with_options_and_threads(self, tiny_repo, tmp_path):
        workdir = str(tmp_path / "db")
        options = TwoStageOptions(io_threads=2)
        db, _ = prepare("lazy", tiny_repo[0], workdir=workdir, options=options)
        expected = db.query(T4).table
        db.close()
        reopened = SommelierDB.open(workdir, options=options)
        result = reopened.query(T4)
        assert result.table == expected
        assert result.stats.chunks_loaded == 0
        reopened.close()


def downgrade_to_v1(chunks_root: str) -> int:
    """Rewrite every committed entry as a version-1 store wrote it.

    Version 1 appended a ``D.#rowid`` column of -1s and recorded the
    decode time as ``loading_cost``.  Returns the entries rewritten.
    """
    rewritten = 0
    for name in os.listdir(chunks_root):
        entry_dir = os.path.join(chunks_root, name)
        manifest_path = os.path.join(entry_dir, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        position = len(manifest["columns"])
        if all(c["name"] != "D.#rowid" for c in manifest["columns"]):
            rowid_file = os.path.join(entry_dir, f"c{position}.npy")
            np.save(rowid_file, np.full(manifest["num_rows"], -1, np.int64))
            manifest["columns"].append({
                "name": "D.#rowid", "dtype": "int64",
                "file": f"c{position}.npy",
                "nbytes": os.path.getsize(rowid_file),
            })
        manifest.update(version=1, table=None, loading_cost=0.01)
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        rewritten += 1
    return rewritten


class TestOldStoreVersion:
    def test_v1_entries_are_redecoded_after_restart(self, tiny_repo, tmp_path):
        workdir = str(tmp_path / "db")
        db, _ = prepare("lazy", tiny_repo[0], workdir=workdir)
        first = db.query(T4)
        db.close()
        assert downgrade_to_v1(os.path.join(workdir, "chunks")) > 0

        reopened = SommelierDB.open(workdir)
        second = reopened.query(T4)
        assert second.table == first.table
        assert second.stats.chunks_loaded == first.stats.chunks_loaded
        assert second.stats.chunks_rehydrated == 0
        reopened.close()


class TestCheckpointCrash:
    def test_crash_mid_column_keeps_previous_checkpoint(
        self, tiny_repo, tmp_path, monkeypatch
    ):
        """A checkpoint that dies while encoding F's second column leaves
        the previous checkpoint's F and S whole on disk."""
        from repro.engine.storage import PagedColumnStore

        workdir = str(tmp_path / "db")
        db, _ = prepare("lazy", tiny_repo[0], workdir=workdir)
        expected_t1 = db.query(T1).table
        expected_t4 = db.query(T4).table
        db.checkpoint()

        encode = PagedColumnStore._encode
        calls = []

        def dies_on_second_column(dtype, values):
            calls.append(dtype)
            if len(calls) == 2:
                raise OSError("simulated crash mid-column")
            return encode(dtype, values)

        monkeypatch.setattr(
            PagedColumnStore, "_encode", staticmethod(dies_on_second_column)
        )
        with pytest.raises(OSError, match="mid-column"):
            db.checkpoint()
        monkeypatch.undo()
        db.database.close()  # the process "dies": no closing checkpoint
        assert not [
            name for name in os.listdir(os.path.join(workdir, "pages"))
            if name.startswith(".tmp-")
        ]

        reopened = SommelierDB.open(workdir)
        assert reopened.query(T1).table == expected_t1
        assert reopened.query(T4).table == expected_t4
        reopened.close()

    def test_interrupted_replace_is_restored_on_open(self, tiny_repo, tmp_path):
        """Crash between the two renames of a table replace: the moved-aside
        copy is the only committed F and comes back at open."""
        workdir = str(tmp_path / "db")
        db, _ = prepare("lazy", tiny_repo[0], workdir=workdir)
        expected = db.query(T1).table
        db.close()
        pages = os.path.join(workdir, "pages")
        os.rename(os.path.join(pages, "F"), os.path.join(pages, "F.old-1-1"))

        reopened = SommelierDB.open(workdir)
        assert reopened.query(T1).table == expected
        assert sorted(os.listdir(pages)) == ["F", "S"]
        reopened.close()


def _tree(root: str) -> dict[str, bytes]:
    """Relative path -> contents of every file under ``root``."""
    contents = {}
    for directory, _, files in os.walk(root):
        for name in files:
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                contents[os.path.relpath(path, root)] = handle.read()
    return contents


class TestShardedCheckpoint:
    """Workdirs written by sharded builds (a ``sharding`` pointer key and
    ``shards/shard-NN/chunks`` stores) reopen as ordinary databases."""

    ROWS = (
        "SELECT D.sample_time, D.sample_value FROM dataview "
        "WHERE F.station = 'FIAM' ORDER BY D.sample_time LIMIT 500"
    )

    def test_reopens_unsharded(self, tiny_repo, tmp_path):
        workdir = str(tmp_path / "db")
        db, _ = prepare("lazy", tiny_repo[0], workdir=workdir)
        db.query(T4)
        db.close()
        # Turn the checkpoint into the sharded layout: the pointer key and
        # two per-shard chunk stores holding real spilled chunks.
        pointers_path = os.path.join(workdir, "catalog.json")
        with open(pointers_path, encoding="utf-8") as handle:
            pointers = json.load(handle)
        pointers["sharding"] = {"shards": 2, "bucket_ms": 24 * 3600 * 1000}
        with open(pointers_path, "w", encoding="utf-8") as handle:
            json.dump(pointers, handle)
        shards_root = os.path.join(workdir, "shards")
        for shard_id in range(2):
            shutil.copytree(
                os.path.join(workdir, "chunks"),
                os.path.join(shards_root, f"shard-{shard_id:02d}", "chunks"),
            )
        before = _tree(shards_root)
        assert before

        fresh, _ = prepare("lazy", tiny_repo[0])
        try:
            expected = [fresh.query(sql).table for sql in (T4, self.ROWS)]
        finally:
            fresh.close()

        reopened = SommelierDB.open(workdir)
        try:
            assert reopened.database.chunk_loader is not None
            got = [reopened.query(sql).table for sql in (T4, self.ROWS)]
            assert got == expected
            assert multiprocessing.active_children() == []
        finally:
            reopened.close()
        # Never delete user data: the orphaned stores are byte-identical,
        # and the next checkpoint drops the key it no longer understands.
        assert _tree(shards_root) == before
        with open(pointers_path, encoding="utf-8") as handle:
            assert "sharding" not in json.load(handle)


AD_COUNT = "SELECT COUNT(*) AS n FROM D WHERE {}"


def chunk_plans(db, sql: str) -> list:
    """Each rewritten scan's fetched URIs and pruned chunks (no tiers)."""
    compiled = db.compiler.compile(db.bind(sql))
    _, report = db.compiler.plan_stage_two(compiled)
    return [(plan.uris, plan.pruned) for plan in report.chunk_plans]


def gap_window(db) -> tuple[int, int, int]:
    """``(file_id, low, high)``: a window inside a gap between two
    segments of one chunk, read from ``S``."""
    s_data = db.database.catalog.table("S").data
    ends = segment_end_ms(
        s_data.column("start_time").values,
        s_data.column("sample_count").values,
        s_data.column("frequency").values,
    ).tolist()
    rows = sorted(
        zip(
            s_data.column("file_id").to_list(),
            s_data.column("start_time").to_list(),
            ends,
        )
    )
    for (file_id, _, end), (next_id, start, _) in zip(rows, rows[1:]):
        if next_id == file_id and start - end > 2:
            return file_id, end + 1, start - 1
    raise AssertionError("no chunk has a gap between segments")


def stats_view(db) -> dict:
    """Every chunk's decoded ranges as plain, comparable values."""
    return {
        uri: entry.ranges
        for uri, entry in db.database.chunk_stats.snapshot().items()
    }


def fresh_answers(repository, queries) -> list:
    fresh, _ = prepare("lazy", repository)
    try:
        return [fresh.query(sql).table for sql in queries]
    finally:
        fresh.close()


class TestCheckpointHoldsNoChunkCopies:
    """F and S are the one chunk catalog: the checkpoint stores no copy of
    the loader's file ids or of the chunk statistics, and reopen rebuilds
    both from the restored tables."""

    def test_checkpoint_is_pointers_only(self, tiny_repo, tmp_path):
        workdir = str(tmp_path / "db")
        db, _ = prepare("lazy", tiny_repo[0], workdir=workdir)
        expected_t1 = db.query(T1).table
        expected_t4 = db.query(T4).table
        db.query("SELECT COUNT(*) AS n FROM dataview")  # enrich every chunk
        file_id, low, high = gap_window(db)
        maxima = sorted(
            e.ranges["D.sample_value"][1]
            for e in db.database.chunk_stats.snapshot().values()
        )
        probes = [
            AD_COUNT.format(
                f"D.sample_time >= {low} AND D.sample_time <= {high}"
            ),
            AD_COUNT.format(f"D.sample_value > {maxima[len(maxima) // 2]}"),
        ]
        plans = [chunk_plans(db, sql) for sql in probes]
        # Stage one leaves out the chunk whose gap holds the window, and
        # decoded value ranges prune half the chunks.
        f_data = db.database.catalog.table("F").data
        gappy = f_data.column("uri").to_list()[
            f_data.column("file_id").to_list().index(file_id)
        ]
        ((gap_uris, _),), ((_, value_pruned),) = plans
        assert gap_uris and gappy not in gap_uris
        assert value_pruned
        uris = db.database.catalog.table("F").data.column("uri").to_list()
        db.close()

        with open(os.path.join(workdir, "catalog.json"), encoding="utf-8") as f:
            text = f.read()
        pointers = json.loads(text)
        assert set(pointers) == {"version", "loader", "tables"}
        assert set(pointers["loader"]) == {"io_delay_ms"}
        assert not [uri for uri in uris if uri in text]

        reopened = SommelierDB.open(workdir)
        try:
            assert reopened.query(T1).table == expected_t1
            warm = reopened.query(T4)
            assert warm.table == expected_t4
            assert warm.stats.chunks_loaded == 0
            assert [chunk_plans(reopened, sql) for sql in probes] == plans
        finally:
            reopened.close()

    def test_parent_format_checkpoint_keys_are_ignored(
        self, tiny_repo, tmp_path
    ):
        """A version-1 checkpoint as older builds wrote it, whose
        ``loader.file_ids`` and ``chunk_stats`` (entries still carrying a
        ``loading_cost``) are wrong on purpose, opens with F/S-derived
        state and answers as a fresh database does."""
        workdir = str(tmp_path / "db")
        db, _ = prepare("lazy", tiny_repo[0], workdir=workdir)
        derived = stats_view(db)
        uris = sorted(db.database.catalog.table("F").data.column("uri").to_list())
        db.close()

        path = os.path.join(workdir, "catalog.json")
        with open(path, encoding="utf-8") as handle:
            pointers = json.load(handle)
        pointers["loader"]["file_ids"] = {
            uri: 100 + index for index, uri in enumerate(uris)
        }
        pointers["chunk_stats"] = [
            {
                "uri": uri,
                "ranges": {
                    "D.sample_value": [1e9, 1e9 + 1],
                    "D.sample_time": [0.0, 1.0],
                },
                "num_rows": 1,
                "enriched": True,
                "loading_cost": 0.2,
                "zones": {"attribute": "D.sample_time", "entries": [[0, 0, 1]]},
            }
            for uri in uris
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(pointers, handle)

        queries = [T1, T4, AD_COUNT.format("D.sample_value > 0")]
        reopened = SommelierDB.open(workdir)
        try:
            assert stats_view(reopened) == derived
            f_data = reopened.database.catalog.table("F").data
            assert dict(reopened.database.chunk_loader.file_ids) == dict(
                zip(f_data.column("uri").to_list(),
                    f_data.column("file_id").to_list())
            )
            got = [reopened.query(sql).table for sql in queries]
        finally:
            reopened.close()
        assert got == fresh_answers(tiny_repo[0], queries)

    def test_chunk_in_neither_tier_reopens_undecoded(self, tiny_repo, tmp_path):
        """What the checkpoint does not keep: value ranges of a chunk
        decoded but resident in neither recycler tier at checkpoint."""
        workdir = str(tmp_path / "db")
        db, _ = prepare("lazy", tiny_repo[0], workdir=workdir)
        value_sql = AD_COUNT.format("D.sample_value > 0")
        expected = [db.query(sql).table for sql in (value_sql, T4)]
        assert len(db.database.chunk_stats) == 8
        db.drop_caches()
        db.close()

        reopened = SommelierDB.open(workdir)
        try:
            assert stats_view(reopened) == {}
            got = [reopened.query(sql).table for sql in (value_sql, T4)]
        finally:
            reopened.close()
        assert got == expected
