"""ChunkStore: round-trip fidelity, atomic commits, crash safety."""

import ast
import json
import os

import numpy as np
import pytest

from repro.engine.chunk_store import MANIFEST_NAME, ChunkStore
from repro.engine.column import Column
from repro.engine.recycler import Recycler
from repro.engine.table import Schema, Table
from repro.engine.types import INT64, STRING, TIMESTAMP
from repro.mseed import steim


def make_table(values: np.ndarray, times: np.ndarray) -> Table:
    schema = Schema.of(("D.sample_time", TIMESTAMP), ("D.sample_value", INT64))
    return Table(
        schema,
        [
            Column(TIMESTAMP, np.asarray(times, dtype=np.int64)),
            Column(INT64, np.asarray(values, dtype=np.int64)),
        ],
    )


class TestRoundTrip:
    def test_steim_encode_decode_store_mmap_property(self, tmp_path):
        """Property test over random signals: the full pipeline is lossless.

        steim encode → decode → store.put → store.get (mmap) must preserve
        every sample for smooth, noisy, constant and extreme-valued
        signals.
        """
        store = ChunkStore(str(tmp_path / "chunks"))
        rng = np.random.default_rng(20150413)
        for trial in range(12):
            n = int(rng.integers(1, 2000))
            kind = trial % 4
            if kind == 0:  # smooth random walk (the seismic-like case)
                samples = np.cumsum(rng.integers(-4, 5, n)).astype(np.int64)
            elif kind == 1:  # white noise with large amplitude
                samples = rng.integers(-(2**31), 2**31, n).astype(np.int64)
            elif kind == 2:  # constant
                samples = np.full(n, int(rng.integers(-100, 100)), np.int64)
            else:  # alternating extremes (worst-case deltas)
                samples = np.where(
                    np.arange(n) % 2 == 0, 2**30, -(2**30)
                ).astype(np.int64)

            decoded = steim.decode(steim.encode(samples))
            assert np.array_equal(decoded, samples)

            times = np.arange(n, dtype=np.int64) * 25
            uri = f"trial-{trial}"
            store.put(uri, make_table(decoded, times))
            loaded = store.get(uri)
            assert loaded is not None
            table = loaded
            assert np.array_equal(
                table.column("D.sample_value").values, samples
            )
            assert np.array_equal(table.column("D.sample_time").values, times)
            # Fixed-width columns come back zero-copy mmap-backed.
            assert all(c.is_mapped for c in table.columns)
            assert table.resident_nbytes == 0
            assert table.nbytes > 0

    def test_string_columns_round_trip_without_mmap(self, tmp_path):
        store = ChunkStore(str(tmp_path))
        schema = Schema.of(("F.station", STRING), ("F.file_id", INT64))
        table = Table(
            schema,
            [
                Column.from_values(STRING, ["ISK", "FIAM", "ARCI"]),
                Column(INT64, np.arange(3, dtype=np.int64)),
            ],
        )
        store.put("strings", table)
        loaded = store.get("strings")
        assert loaded.column("F.station").to_list() == ["ISK", "FIAM", "ARCI"]
        assert not loaded.column("F.station").is_mapped
        assert loaded.column("F.file_id").is_mapped

    def test_overwrite_replaces_entry(self, tmp_path):
        store = ChunkStore(str(tmp_path))
        first = make_table(np.arange(4), np.arange(4))
        second = make_table(np.arange(8), np.arange(8))
        store.put("u", first)
        store.put("u", second)
        table = store.get("u")
        assert table.num_rows == 8
        assert len(store) == 1

    def test_survives_reopen(self, tmp_path):
        root = str(tmp_path)
        store = ChunkStore(root)
        store.put("persist-me", make_table(np.arange(16), np.arange(16)))
        del store

        reopened = ChunkStore(root)
        assert "persist-me" in reopened
        assert reopened.uris() == {"persist-me"}
        table = reopened.get("persist-me")
        assert table.num_rows == 16

    def test_cross_object_visibility(self, tmp_path):
        """A commit by one store object is visible to another (process model)."""
        root = str(tmp_path)
        reader = ChunkStore(root)  # scans an empty dir
        writer = ChunkStore(root)
        writer.put("late", make_table(np.arange(5), np.arange(5)))
        # The reader's index predates the commit: the disk probe finds it.
        assert "late" in reader
        loaded = reader.get("late")
        assert loaded is not None and loaded.num_rows == 5


class TestCrashSafety:
    def entry_dir(self, store: ChunkStore, uri: str) -> str:
        return store._entry_dir(uri)

    def test_truncated_manifest_is_ignored(self, tmp_path):
        root = str(tmp_path)
        store = ChunkStore(root)
        store.put("ok", make_table(np.arange(4), np.arange(4)))
        store.put("torn", make_table(np.arange(4), np.arange(4)))
        manifest = os.path.join(self.entry_dir(store, "torn"), MANIFEST_NAME)
        blob = open(manifest, "rb").read()
        with open(manifest, "wb") as handle:
            handle.write(blob[: len(blob) // 2])  # kill mid-write

        reopened = ChunkStore(root)
        assert reopened.uris() == {"ok"}
        assert reopened.get("torn") is None
        assert reopened.stats.invalid_entries >= 1
        # The store stays fully usable: the torn entry can be rewritten.
        reopened.put("torn", make_table(np.arange(6), np.arange(6)))
        assert reopened.get("torn").num_rows == 6

    def test_missing_manifest_is_ignored(self, tmp_path):
        root = str(tmp_path)
        store = ChunkStore(root)
        store.put("gone", make_table(np.arange(4), np.arange(4)))
        os.unlink(os.path.join(self.entry_dir(store, "gone"), MANIFEST_NAME))
        reopened = ChunkStore(root)
        assert reopened.get("gone") is None

    def test_interrupted_staging_dir_is_ignored(self, tmp_path):
        """A kill mid-spill leaves only a .tmp-* dir — never a torn entry."""
        root = str(tmp_path)
        store = ChunkStore(root)
        staging = os.path.join(root, ".tmp-9999-1")
        os.makedirs(staging)
        np.save(os.path.join(staging, "c0.npy"), np.arange(4))
        # No manifest, no rename: the crash point before commit.
        reopened = ChunkStore(root)
        assert len(reopened) == 0
        assert reopened.get("anything") is None
        assert store.get("anything") is None

    def test_missing_payload_file_is_invalid(self, tmp_path):
        root = str(tmp_path)
        store = ChunkStore(root)
        store.put("hollow", make_table(np.arange(4), np.arange(4)))
        os.unlink(os.path.join(self.entry_dir(store, "hollow"), "c1.npy"))
        reopened = ChunkStore(root)
        assert reopened.get("hollow") is None
        assert reopened.stats.invalid_entries >= 1

    def test_manifest_uri_mismatch_is_ignored(self, tmp_path):
        """Digest collisions or copied dirs never serve the wrong chunk."""
        root = str(tmp_path)
        store = ChunkStore(root)
        store.put("real", make_table(np.arange(4), np.arange(4)))
        manifest_path = os.path.join(
            self.entry_dir(store, "real"), MANIFEST_NAME
        )
        manifest = json.load(open(manifest_path))
        manifest["uri"] = "someone-else"
        json.dump(manifest, open(manifest_path, "w"))
        assert ChunkStore(root).get("real") is None


def dead_pid() -> int:
    """A PID guaranteed to belong to no running process."""
    import multiprocessing

    process = multiprocessing.get_context("spawn").Process(target=int)
    process.start()
    process.join()
    return process.pid


class TestDurability:
    def entry_dir(self, store: ChunkStore, uri: str) -> str:
        return store._entry_dir(uri)

    def test_torn_payload_is_a_miss_and_quarantined(self, tmp_path):
        """A committed entry with a truncated column file never serves."""
        root = str(tmp_path)
        store = ChunkStore(root)
        store.put("torn", make_table(np.arange(256), np.arange(256)))
        payload = os.path.join(self.entry_dir(store, "torn"), "c0.npy")
        with open(payload, "r+b") as handle:
            handle.truncate(os.path.getsize(payload) // 2)

        assert store.get("torn") is None  # miss, not a crash
        assert store.stats.invalid_entries >= 1
        # Quarantined: the entry dir is gone, a rewrite is not shadowed.
        assert not os.path.isdir(self.entry_dir(store, "torn"))
        store.put("torn", make_table(np.arange(8), np.arange(8)))
        assert store.get("torn").num_rows == 8

    def test_zero_length_payload_is_a_miss(self, tmp_path):
        """The power-loss signature: committed manifest, empty data file."""
        root = str(tmp_path)
        store = ChunkStore(root)
        store.put("zero", make_table(np.arange(64), np.arange(64)))
        payload = os.path.join(self.entry_dir(store, "zero"), "c1.npy")
        with open(payload, "wb"):
            pass  # truncate to zero bytes
        assert store.get("zero") is None
        assert store.stats.invalid_entries >= 1

    def test_transient_io_error_does_not_quarantine(self, tmp_path, monkeypatch):
        """EMFILE-style failures are a miss, never a destroyed entry."""
        store = ChunkStore(str(tmp_path))
        store.put("fine", make_table(np.arange(16), np.arange(16)))

        def exhausted(*args, **kwargs):
            raise OSError(24, "Too many open files")

        # Fixed-width columns are mapped with np.memmap (no np.load).
        monkeypatch.setattr(np, "memmap", exhausted)
        assert store.get("fine") is None
        monkeypatch.undo()
        # The entry survived on disk and serves normally afterwards.
        assert os.path.isdir(store._entry_dir("fine"))
        assert store.get("fine").num_rows == 16

    @pytest.mark.parametrize(
        "position, blob",
        [
            (0, b"\x00"),  # magic
            (6, b"\x02"),  # format version (2, 0)
            (8, b"\x40"),  # header length 64: payload offset shifts
        ],
        ids=["magic", "version", "header_length"],
    )
    def test_malformed_npy_prefix_is_a_miss_and_quarantined(
        self, tmp_path, position, blob
    ):
        """Same-size corruption of the .npy prefix is never mapped."""
        store = ChunkStore(str(tmp_path))
        store.put("bad", make_table(np.arange(32), np.arange(32)))
        payload = os.path.join(self.entry_dir(store, "bad"), "c1.npy")
        size = os.path.getsize(payload)
        with open(payload, "r+b") as handle:
            handle.seek(position)
            handle.write(blob)
        assert os.path.getsize(payload) == size  # manifest nbytes still match

        assert store.get("bad") is None
        assert store.stats.invalid_entries >= 1
        assert not os.path.isdir(self.entry_dir(store, "bad"))

    def test_unknown_manifest_dtype_is_a_miss_and_quarantined(self, tmp_path):
        """A dtype name the engine does not know reads as a miss.

        The store quarantines the entry instead of failing the query, and
        the next fetch through the recycler decodes the chunk again.
        """
        samples = np.cumsum(np.arange(300) % 9 - 4).astype(np.int64)
        encoded = steim.encode(samples)
        times = np.arange(len(samples), dtype=np.int64) * 25

        def decode(uri):
            return make_table(steim.decode(encoded), times)

        store = ChunkStore(str(tmp_path))
        original = decode("odd")
        store.put("odd", original)
        manifest_path = os.path.join(self.entry_dir(store, "odd"), MANIFEST_NAME)
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        manifest["columns"][1]["dtype"] = "FOO"
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)

        assert store.get("odd") is None
        assert store.stats.invalid_entries >= 1
        assert not os.path.isdir(self.entry_dir(store, "odd"))

        cache = Recycler(budget_bytes=1 << 20, store=store)
        table, outcome = cache.get_or_load("odd", decode)
        assert outcome == "loaded"
        assert table.schema == original.schema
        for fetched, expected in zip(table.columns, original.columns):
            assert fetched.values.dtype == expected.values.dtype
            assert fetched.values.tobytes() == expected.values.tobytes()

    def test_rehydrate_never_parses_npy_header(self, tmp_path, monkeypatch):
        """A failing header parse cannot fail a fixed-width rehydrate.

        ``np.load`` parses the ``.npy`` header with ``ast.literal_eval``,
        which raised ``SystemError`` under concurrent rehydrates on CPython
        3.11; the store maps the payload from the manifest instead.
        """
        store = ChunkStore(str(tmp_path))
        values = np.cumsum(np.arange(720) % 7 - 3).astype(np.int64)
        times = np.arange(720, dtype=np.int64) * 10
        store.put("spilled", make_table(values, times))

        def broken(*args, **kwargs):
            raise SystemError("AST constructor recursion depth mismatch")

        monkeypatch.setattr(ast, "literal_eval", broken)
        table = store.get("spilled")
        assert np.array_equal(table.column("D.sample_value").values, values)
        assert np.array_equal(table.column("D.sample_time").values, times)
        assert all(c.is_mapped for c in table.columns)
        assert store.stats.invalid_entries == 0

    def test_quarantined_entry_is_reaped_at_next_open(self, tmp_path):
        root = str(tmp_path)
        store = ChunkStore(root)
        store.put("torn", make_table(np.arange(16), np.arange(16)))
        payload = os.path.join(self.entry_dir(store, "torn"), "c0.npy")
        with open(payload, "wb"):
            pass
        assert store.get("torn") is None

        reopened = ChunkStore(root)
        assert reopened.uris() == set()
        assert reopened.stats.swept_dirs >= 1
        assert not any(
            name.endswith(".quarantine") for name in os.listdir(root)
        )


class TestOpenSweep:
    def entry_dir(self, store: ChunkStore, uri: str) -> str:
        return store._entry_dir(uri)

    def test_planted_old_dir_is_restored_when_entry_lost(self, tmp_path):
        """Crash between the rename-aside and the commit rename: the .old
        directory is the only committed state left — reopening restores it
        instead of leaving the URI with no entry at all."""
        root = str(tmp_path)
        store = ChunkStore(root)
        store.put("u", make_table(np.arange(32), np.arange(32)))
        final = self.entry_dir(store, "u")
        os.rename(final, final + ".old")  # the mid-replace crash state

        reopened = ChunkStore(root)
        assert reopened.stats.restored_entries == 1
        assert reopened.uris() == {"u"}
        table = reopened.get("u")
        assert table.num_rows == 32

    def test_writer_unique_old_dir_is_restored(self, tmp_path):
        """Replaces park the old entry under a writer-unique .old-* name
        (concurrent replacers never delete each other's safety copy); the
        sweep restores those exactly like plain .old dirs."""
        root = str(tmp_path)
        store = ChunkStore(root)
        store.put("u", make_table(np.arange(6), np.arange(6)))
        final = self.entry_dir(store, "u")
        os.rename(final, final + ".old-12345-7")

        reopened = ChunkStore(root)
        assert reopened.stats.restored_entries == 1
        assert reopened.get("u").num_rows == 6

    def test_planted_old_dir_is_swept_when_entry_survived(self, tmp_path):
        import shutil

        root = str(tmp_path)
        store = ChunkStore(root)
        store.put("u", make_table(np.arange(8), np.arange(8)))
        final = self.entry_dir(store, "u")
        shutil.copytree(final, final + ".old")  # replace completed

        reopened = ChunkStore(root)
        assert reopened.stats.restored_entries == 0
        assert reopened.stats.swept_dirs == 1
        assert not os.path.isdir(final + ".old")
        assert reopened.get("u").num_rows == 8

    def test_dead_process_staging_is_swept(self, tmp_path):
        """Kill after the payload fsyncs but before the commit rename: the
        fully-written staging dir must be garbage-collected, never served."""
        root = str(tmp_path)
        store = ChunkStore(root)
        store.put("u", make_table(np.arange(4), np.arange(4)))
        committed = self.entry_dir(store, "u")
        staging = os.path.join(root, f".tmp-{dead_pid()}-1")
        import shutil

        shutil.copytree(committed, staging)  # crash point: pre-rename

        reopened = ChunkStore(root)
        assert reopened.stats.swept_dirs == 1
        assert not os.path.isdir(staging)
        assert reopened.uris() == {"u"}

    def test_live_process_staging_is_left_alone(self, tmp_path):
        root = str(tmp_path)
        ChunkStore(root)
        staging = os.path.join(root, f".tmp-{os.getpid()}-77")
        os.makedirs(staging)
        reopened = ChunkStore(root)
        assert os.path.isdir(staging)  # its writer may still commit it
        assert len(reopened) == 0

    def test_full_mid_replace_crash_recovers_old_version(self, tmp_path):
        """Both leftovers at once (the planted crash of the issue): the
        new version's staging dir and the displaced old entry.  Recovery
        keeps the old committed version and discards the orphan."""
        import shutil

        root = str(tmp_path)
        store = ChunkStore(root)
        store.put("u", make_table(np.arange(10), np.arange(10)))
        final = self.entry_dir(store, "u")
        staging = os.path.join(root, f".tmp-{dead_pid()}-3")
        shutil.copytree(final, staging)  # v2 staged, never committed
        os.rename(final, final + ".old")  # v1 moved aside, then crash

        reopened = ChunkStore(root)
        assert reopened.uris() == {"u"}
        assert reopened.get("u").num_rows == 10
        assert not os.path.isdir(staging)
        assert not os.path.isdir(final + ".old")


class TestMaintenance:
    def test_delete_and_clear(self, tmp_path):
        store = ChunkStore(str(tmp_path))
        for i in range(3):
            store.put(f"u{i}", make_table(np.arange(4), np.arange(4)))
        store.delete("u1")
        assert store.uris() == {"u0", "u2"}
        assert store.get("u1") is None
        store.clear()
        assert len(store) == 0
        assert store.nbytes == 0

    def test_stats_and_tier_snapshot(self, tmp_path):
        store = ChunkStore(str(tmp_path))
        store.put("u", make_table(np.arange(64), np.arange(64)))
        store.get("u")
        store.get("absent")
        snapshot = store.tier_stats()
        assert snapshot["entries"] == 1
        assert snapshot["spills"] == 1
        assert snapshot["rehydrates"] == 1
        assert snapshot["misses"] == 1
        assert snapshot["bytes_stored"] > 0


def write_v1_entry(root: str, uri: str, chunk: Table) -> str:
    """Commit ``chunk`` the way a version-1 store did; returns its dir.

    Version 1 appended a ``D.#rowid`` column of -1s to every chunk and
    recorded the decode time as ``loading_cost``.
    """
    entry_dir = os.path.join(root, ChunkStore._key(uri))
    os.makedirs(entry_dir)
    arrays = [np.ascontiguousarray(c.values) for c in chunk.columns]
    arrays.append(np.full(chunk.num_rows, -1, dtype=np.int64))
    names = [*chunk.schema.names, "D.#rowid"]
    dtypes = [f.dtype.name for f in chunk.schema] + [INT64.name]
    columns = []
    for position, (name, dtype, values) in enumerate(
        zip(names, dtypes, arrays)
    ):
        filename = f"c{position}.npy"
        path = os.path.join(entry_dir, filename)
        np.save(path, values, allow_pickle=False)
        columns.append({"name": name, "dtype": dtype, "file": filename,
                        "nbytes": os.path.getsize(path)})
    manifest = {"version": 1, "uri": uri, "table": None,
                "loading_cost": 0.01, "num_rows": chunk.num_rows,
                "columns": columns, "stats": {}}
    with open(os.path.join(entry_dir, MANIFEST_NAME), "w") as handle:
        json.dump(manifest, handle)
    return entry_dir


class TestOldVersion:
    """A version-1 entry is a miss that is re-decoded, never misread."""

    def test_store_get_is_a_miss(self, tmp_path):
        root = str(tmp_path)
        ids = Column(INT64, np.zeros(8, dtype=np.int64))
        values = make_table(np.arange(8), np.arange(8))
        chunk = Table(
            Schema.of(("D.file_id", INT64), ("D.segment_no", INT64),
                      *((f.name, f.dtype) for f in values.schema)),
            [ids, ids, *values.columns],
        )
        write_v1_entry(root, "old", chunk)
        store = ChunkStore(root)
        assert store.get("old") is None
        assert store.stats.misses == 1
        assert store.stats.invalid_entries == 1
        assert "old" not in store

    def test_fetch_redecodes_and_the_flush_replaces_it(self, lazy_db):
        database = lazy_db.database
        uri = sorted(database.chunk_loader.file_ids)[0]
        fresh = database.load_chunk(uri, "D")
        assert fresh.num_columns == 4
        entry_dir = write_v1_entry(database.chunk_store.root, uri, fresh)

        table, outcome = database.fetch_chunk(uri, "D")
        assert outcome == "loaded"
        assert table.schema == fresh.schema
        for ours, theirs in zip(table.columns, fresh.columns):
            assert ours.values.dtype == theirs.values.dtype
            assert ours.values.tobytes() == theirs.values.tobytes()

        assert database.recycler.flush_to_store() == 1
        with open(os.path.join(entry_dir, MANIFEST_NAME)) as handle:
            manifest = json.load(handle)
        assert manifest["version"] == 2
        assert "loading_cost" not in manifest
        assert [c["name"] for c in manifest["columns"]] == list(
            fresh.schema.names
        )
        assert sorted(os.listdir(entry_dir)) == [
            "c0.npy", "c1.npy", "c2.npy", "c3.npy", MANIFEST_NAME,
        ]
