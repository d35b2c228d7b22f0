"""Tests for the Recycler chunk cache (LRU eviction)."""

import pytest

from repro.engine.errors import StorageError
from repro.engine.recycler import Recycler
from repro.engine.table import Schema, Table
from repro.engine.types import INT64


def make_chunk(rows: int) -> Table:
    schema = Schema.of(("v", INT64))
    return Table.from_rows(schema, [(i,) for i in range(rows)])


class TestBasics:
    def test_miss_then_hit(self):
        cache = Recycler(budget_bytes=1 << 20)
        assert cache.get("a") is None
        cache.put("a", make_chunk(10))
        assert cache.get("a") is not None
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_contains_and_uris(self):
        cache = Recycler(budget_bytes=1 << 20)
        cache.put("x", make_chunk(1))
        assert "x" in cache
        assert cache.cached_uris() == {"x"}

    def test_invalidate(self):
        cache = Recycler(budget_bytes=1 << 20)
        cache.put("x", make_chunk(1))
        cache.invalidate("x")
        assert "x" not in cache
        assert cache.bytes_cached == 0

    def test_clear(self):
        cache = Recycler(budget_bytes=1 << 20)
        cache.put("x", make_chunk(1))
        cache.put("y", make_chunk(1))
        cache.clear()
        assert len(cache) == 0

    def test_replace_same_uri_no_leak(self):
        cache = Recycler(budget_bytes=1 << 20)
        cache.put("x", make_chunk(100))
        before = cache.bytes_cached
        cache.put("x", make_chunk(100))
        assert cache.bytes_cached == before

    def test_invalid_budget(self):
        with pytest.raises(StorageError):
            Recycler(budget_bytes=0)


class TestBudget:
    def test_never_exceeds_budget(self):
        chunk = make_chunk(100)
        budget = chunk.nbytes * 3 + 10
        cache = Recycler(budget_bytes=budget)
        for i in range(10):
            cache.put(f"u{i}", make_chunk(100))
            assert cache.bytes_cached <= budget

    def test_oversized_chunk_rejected(self):
        cache = Recycler(budget_bytes=64)
        assert cache.put("big", make_chunk(1000)) is False
        assert len(cache) == 0

    def test_eviction_counted(self):
        chunk_bytes = make_chunk(100).nbytes
        cache = Recycler(budget_bytes=chunk_bytes * 2)
        for i in range(4):
            cache.put(f"u{i}", make_chunk(100))
        assert cache.stats.evictions >= 2


class TestLRUPolicy:
    def test_least_recently_used_evicted(self):
        chunk_bytes = make_chunk(10).nbytes
        cache = Recycler(budget_bytes=chunk_bytes * 2 + 8)
        cache.put("a", make_chunk(10))
        cache.put("b", make_chunk(10))
        cache.get("a")  # refresh a
        cache.put("c", make_chunk(10))  # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache
