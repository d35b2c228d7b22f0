"""Two-tier Recycler: spill-on-evict, re-hydrate, exact byte accounting."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.engine.chunk_store import ChunkStore
from repro.engine.column import Column
from repro.engine.recycler import Recycler
from repro.engine.table import Schema, Table
from repro.engine.types import INT64


def make_chunk(rows: int, fill: int = 0) -> Table:
    schema = Schema.of(("v", INT64))
    return Table(
        schema, [Column(INT64, np.full(rows, fill, dtype=np.int64))]
    )


class FailingLoader:
    """A loader that must never be called (tier-2 hit expected)."""

    def __call__(self, uri: str):
        raise AssertionError(f"loader called for {uri!r}")


class CountingLoader:
    def __init__(self, rows: int = 128) -> None:
        self.calls: dict[str, int] = {}
        self.rows = rows
        self._lock = threading.Lock()

    def __call__(self, uri: str):
        with self._lock:
            self.calls[uri] = self.calls.get(uri, 0) + 1
        return make_chunk(self.rows)


class TestSpillOnEvict:
    def test_evicted_chunk_lands_in_store(self, tmp_path):
        store = ChunkStore(str(tmp_path))
        chunk = make_chunk(128)  # 1 KiB payload
        cache = Recycler(budget_bytes=2 * chunk.nbytes, store=store)
        cache.put("a", make_chunk(128, 1))
        cache.put("b", make_chunk(128, 2))
        cache.put("c", make_chunk(128, 3))  # evicts "a" (LRU)
        assert "a" not in cache
        assert "a" in store
        assert cache.stats.evictions == 1
        assert cache.stats.spills == 1
        assert cache.stats.bytes_spilled > 0

    def test_rehydrate_instead_of_reload(self, tmp_path):
        store = ChunkStore(str(tmp_path))
        chunk_bytes = make_chunk(128).nbytes
        cache = Recycler(budget_bytes=2 * chunk_bytes, store=store)
        cache.put("a", make_chunk(128, 1))
        cache.put("b", make_chunk(128, 2))
        cache.put("c", make_chunk(128, 3))  # "a" spills

        table, outcome = cache.get_or_load("a", FailingLoader())
        assert outcome == "rehydrated"
        assert table.column("v").values[0] == 1
        assert table.resident_nbytes == 0  # mmap-backed
        assert cache.stats.rehydrates == 1
        # Re-admitted to the memory tier, resident-free.
        assert "a" in cache

    def test_spill_disabled(self, tmp_path):
        store = ChunkStore(str(tmp_path))
        chunk_bytes = make_chunk(128).nbytes
        cache = Recycler(
            budget_bytes=chunk_bytes, store=store, spill_on_evict=False
        )
        cache.put("a", make_chunk(128))
        cache.put("b", make_chunk(128))
        assert "a" not in store
        loader = CountingLoader()
        _, outcome = cache.get_or_load("a", loader)
        assert outcome == "loaded"
        assert loader.calls == {"a": 1}

    def test_flush_to_store(self, tmp_path):
        store = ChunkStore(str(tmp_path))
        cache = Recycler(budget_bytes=1 << 20, store=store)
        cache.put("x", make_chunk(16))
        cache.put("y", make_chunk(16))
        assert cache.flush_to_store() == 2
        assert store.uris() == {"x", "y"}
        # Idempotent: already-stored entries are skipped.
        assert cache.flush_to_store() == 0

    def test_invalidate_during_spill_never_resurrects(self, tmp_path):
        """A chunk invalidated mid-spill must not reappear in the store."""

        class GatedStore(ChunkStore):
            def __init__(self, root):
                super().__init__(root)
                self.entered = threading.Event()
                self.gate = threading.Event()

            def put(self, uri, table):
                if uri == "victim":
                    self.entered.set()
                    assert self.gate.wait(timeout=5)
                return super().put(uri, table)

        store = GatedStore(str(tmp_path))
        chunk_bytes = make_chunk(64).nbytes
        cache = Recycler(budget_bytes=chunk_bytes, store=store)
        cache.put("victim", make_chunk(64, 1))

        # Evicting "victim" spills it; the spill blocks inside store.put.
        evictor = threading.Thread(
            target=cache.put, args=("other", make_chunk(64, 2))
        )
        evictor.start()
        assert store.entered.wait(timeout=5)
        cache.invalidate("victim")  # races the in-flight spill
        store.gate.set()
        evictor.join(timeout=5)

        assert "victim" not in store
        assert cache.get_or_load("victim", CountingLoader())[1] == "loaded"

    def test_invalidate_drops_both_tiers(self, tmp_path):
        store = ChunkStore(str(tmp_path))
        cache = Recycler(budget_bytes=1 << 20, store=store)
        cache.put("gone", make_chunk(16))
        cache.flush_to_store()
        cache.invalidate("gone")
        assert "gone" not in cache
        assert "gone" not in store

    def test_clear_spilled_flag(self, tmp_path):
        store = ChunkStore(str(tmp_path))
        cache = Recycler(budget_bytes=1 << 20, store=store)
        cache.put("kept", make_chunk(16))
        cache.flush_to_store()
        cache.clear(spilled=False)  # the "process restart" shape
        assert len(cache) == 0
        assert "kept" in store
        cache.clear()  # the fully-cold protocol
        assert "kept" not in store


class TestByteAccounting:
    def test_mapped_entries_do_not_consume_budget(self, tmp_path):
        """Re-hydrated chunks must not double-count against the budget."""
        store = ChunkStore(str(tmp_path))
        chunk_bytes = make_chunk(512).nbytes
        cache = Recycler(budget_bytes=2 * chunk_bytes, store=store)
        # Fill the store with far more than the memory budget.
        for i in range(8):
            store.put(f"u{i}", make_chunk(512, i))
        for i in range(8):
            _, outcome = cache.get_or_load(f"u{i}", FailingLoader())
            assert outcome == "rehydrated"
        # All 8 logical chunks are resident-free: none was evicted.
        assert len(cache) == 8
        assert cache.bytes_cached == 0
        assert cache.bytes_mapped == 8 * chunk_bytes
        assert cache.stats.evictions == 0

    def test_heap_entries_still_respect_budget(self, tmp_path):
        store = ChunkStore(str(tmp_path))
        chunk_bytes = make_chunk(512).nbytes
        cache = Recycler(budget_bytes=2 * chunk_bytes, store=store)
        for i in range(4):
            cache.put(f"h{i}", make_chunk(512, i))
        assert cache.bytes_cached <= cache.budget_bytes
        assert cache.stats.evictions == 2

    def test_tier_stats_shape(self, tmp_path):
        store = ChunkStore(str(tmp_path))
        cache = Recycler(budget_bytes=1 << 20, store=store)
        cache.put("s", make_chunk(16))
        stats = cache.tier_stats()
        assert stats["memory"]["entries"] == 1
        assert stats["memory"]["bytes_resident"] == make_chunk(16).nbytes
        assert stats["memory"]["bytes_mapped"] == 0
        assert stats["disk"]["enabled"] == 1
        storeless = Recycler(budget_bytes=1 << 20)
        assert storeless.tier_stats()["disk"] == {"enabled": 0}


class TestSingleFlightAcrossTiers:
    def test_exactly_once_decode_then_exactly_zero_after_spill(self, tmp_path):
        """The decode happens once; after a spill, never again."""
        store = ChunkStore(str(tmp_path))
        cache = Recycler(budget_bytes=1 << 20, store=store)
        loader = CountingLoader()
        threads = 8

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(
                pool.map(
                    lambda _: cache.get_or_load("hot", loader), range(threads)
                )
            )
        assert loader.calls == {"hot": 1}
        outcomes = [o for _, o in results]
        assert outcomes.count("loaded") == 1
        assert all(o in ("loaded", "coalesced", "hit") for o in outcomes)

        # Simulate memory pressure: entry leaves RAM but is on disk.
        cache.flush_to_store()
        cache.clear(spilled=False)

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(
                pool.map(
                    lambda _: cache.get_or_load("hot", loader), range(threads)
                )
            )
        # Still exactly one decode ever; the disk tier absorbed the storm.
        assert loader.calls == {"hot": 1}
        outcomes = [o for _, o in results]
        assert outcomes.count("rehydrated") == 1
        assert all(
            o in ("rehydrated", "coalesced", "hit") for o in outcomes
        )

    def test_stats_exact_under_contention_with_tiers(self, tmp_path):
        store = ChunkStore(str(tmp_path))
        cache = Recycler(budget_bytes=1 << 20, store=store)
        loader = CountingLoader()
        uris = [f"u{i}" for i in range(6)]
        for uri in uris[:3]:  # pre-spill half the URIs
            store.put(uri, make_chunk(32))
        calls = 64

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(
                pool.map(
                    lambda i: cache.get_or_load(uris[i % len(uris)], loader),
                    range(calls),
                )
            )
        stats = cache.stats
        accounted = (
            stats.hits + stats.misses + stats.rehydrates + stats.coalesced
        )
        assert accounted == calls
        assert stats.misses == 3  # the unspilled URIs, decoded once each
        assert stats.rehydrates == 3
        assert loader.calls == {uri: 1 for uri in uris[3:]}
