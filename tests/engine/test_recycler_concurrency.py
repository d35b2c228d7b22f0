"""Thread-safety tests for the Recycler: single-flight + exact accounting."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engine.errors import StorageError
from repro.engine.recycler import Recycler
from repro.engine.table import Schema, Table
from repro.engine.types import INT64


def make_chunk(rows: int) -> Table:
    schema = Schema.of(("v", INT64))
    return Table.from_rows(schema, [(i,) for i in range(rows)])


class CountingLoader:
    """A chunk loader that counts invocations per URI, thread-safely."""

    def __init__(self, delay_s: float = 0.0, rows: int = 16) -> None:
        self.calls: dict[str, int] = {}
        self.delay_s = delay_s
        self.rows = rows
        self._lock = threading.Lock()

    def __call__(self, uri: str) -> Table:
        with self._lock:
            self.calls[uri] = self.calls.get(uri, 0) + 1
        if self.delay_s:
            time.sleep(self.delay_s)
        return make_chunk(self.rows)

    def total_calls(self) -> int:
        return sum(self.calls.values())


class TestSingleFlight:
    def test_same_uri_loaded_exactly_once(self):
        cache = Recycler(budget_bytes=1 << 20)
        loader = CountingLoader(delay_s=0.02)
        threads = 8

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(
                pool.map(
                    lambda _: cache.get_or_load("chunk-1", loader),
                    range(threads),
                )
            )

        assert loader.calls == {"chunk-1": 1}
        outcomes = sorted(outcome for _, outcome in results)
        assert outcomes.count("loaded") == 1
        # Everyone else either coalesced on the in-flight load or hit the
        # cache just after it completed.
        assert all(o in ("loaded", "coalesced", "hit") for o in outcomes)
        tables = [table for table, _ in results]
        assert all(t.num_rows == tables[0].num_rows for t in tables)
        # Exactly one of hit/miss/coalesced is counted per call.
        stats = cache.stats
        assert stats.misses == 1
        assert stats.hits + stats.coalesced == threads - 1

    def test_distinct_uris_load_independently(self):
        cache = Recycler(budget_bytes=1 << 20)
        loader = CountingLoader(delay_s=0.005)
        uris = [f"chunk-{i}" for i in range(6)]

        with ThreadPoolExecutor(max_workers=6) as pool:
            list(pool.map(lambda uri: cache.get_or_load(uri, loader), uris))

        assert loader.calls == {uri: 1 for uri in uris}
        assert cache.cached_uris() == set(uris)

    def test_contended_workload_loads_each_uri_once(self):
        cache = Recycler(budget_bytes=1 << 20)
        loader = CountingLoader(delay_s=0.002)
        uris = [f"chunk-{i}" for i in range(4)]
        work = uris * 8  # 8 workers race over every chunk

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lambda uri: cache.get_or_load(uri, loader), work))

        assert loader.total_calls() == len(uris)
        assert cache.stats.insertions == len(uris)

    def test_second_wave_hits_cache(self):
        cache = Recycler(budget_bytes=1 << 20)
        loader = CountingLoader()
        cache.get_or_load("chunk-1", loader)
        table, outcome = cache.get_or_load("chunk-1", loader)
        assert outcome == "hit"
        assert loader.total_calls() == 1

    def test_loader_failure_propagates_to_all_waiters(self):
        cache = Recycler(budget_bytes=1 << 20)
        started = threading.Barrier(4)

        def failing(uri: str) -> Table:
            time.sleep(0.02)
            raise StorageError(f"cannot fetch {uri}")

        def attempt(_):
            started.wait()
            cache.get_or_load("bad-chunk", failing)

        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(attempt, i) for i in range(4)]
            for future in futures:
                with pytest.raises(StorageError):
                    future.result()
        assert "bad-chunk" not in cache

    def test_failed_load_can_be_retried(self):
        cache = Recycler(budget_bytes=1 << 20)
        attempts = []

        def flaky(uri: str) -> Table:
            attempts.append(uri)
            if len(attempts) == 1:
                raise StorageError("transient")
            return make_chunk(4)

        with pytest.raises(StorageError):
            cache.get_or_load("chunk-1", flaky)
        table, outcome = cache.get_or_load("chunk-1", flaky)
        assert outcome == "loaded"
        assert len(attempts) == 2


class TestExactAccountingUnderContention:
    def test_bytes_cached_matches_entries_after_eviction_storm(self):
        chunk = make_chunk(64)
        # Budget fits only a handful of chunks: concurrent puts must evict.
        cache = Recycler(budget_bytes=chunk.nbytes * 3)
        workers = 8
        puts_per_worker = 50

        def hammer(worker: int) -> None:
            for i in range(puts_per_worker):
                cache.put(f"w{worker}-c{i % 10}", make_chunk(64))
                cache.get(f"w{worker}-c{i % 10}")

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(hammer, range(workers)))

        entries = cache.entries()
        assert cache.bytes_cached == sum(e.nbytes for e in entries)
        assert cache.bytes_cached <= cache.budget_bytes
        assert len(entries) == len({e.uri for e in entries})

    def test_insertions_minus_evictions_equals_population(self):
        chunk = make_chunk(32)
        cache = Recycler(budget_bytes=chunk.nbytes * 4)

        def hammer(worker: int) -> None:
            for i in range(40):
                cache.put(f"w{worker}-c{i}", make_chunk(32))

        with ThreadPoolExecutor(max_workers=6) as pool:
            list(pool.map(hammer, range(6)))

        stats = cache.stats
        assert stats.insertions - stats.evictions == len(cache)
        assert stats.bytes_evicted == chunk.nbytes * stats.evictions

    def test_hit_miss_counts_exact_under_contention(self):
        cache = Recycler(budget_bytes=1 << 20)
        cache.put("hot", make_chunk(8))
        readers, reads = 8, 200

        def read(_):
            for _ in range(reads):
                cache.get("hot")
                cache.get("cold")

        with ThreadPoolExecutor(max_workers=readers) as pool:
            list(pool.map(read, range(readers)))

        assert cache.stats.hits == readers * reads
        assert cache.stats.misses == readers * reads
