"""End-to-end tests of the serving front end over real sockets.

Each test boots a :class:`SommelierServer` on its own event-loop thread
(`start_in_thread`) against a lazily-prepared test repository, then
talks to it with the blocking :class:`ServingClient`.  Slow queries are
manufactured with the loader's ``io_delay_ms`` fetch-latency model plus
a cold recycler, exactly like the benchmarks.
"""

from __future__ import annotations

import math
import threading
import time
from urllib.parse import quote

import pytest

from repro.core.loading import prepare
from repro.core.two_stage import TwoStageOptions
from repro.data.ingv import EPOCH_2010_MS
from repro.engine.errors import QueryCancelled
from repro.serving import ServerConfig, ServingClient, start_in_thread

MILLIS_PER_DAY = 24 * 3600 * 1000
DAY0 = EPOCH_2010_MS
DAY2 = EPOCH_2010_MS + 2 * MILLIS_PER_DAY
HOUR_MS = 3600 * 1000

# Two chunks (ISK x 2 days) — with io_delay_ms set and a cold recycler
# this query occupies an execution slot for at least one fetch latency.
SLOW_SQL = (
    "SELECT COUNT(*) AS n, AVG(D.sample_value) AS mean FROM dataview "
    f"WHERE F.station = 'ISK' AND D.sample_time >= {DAY0} "
    f"AND D.sample_time < {DAY2}"
)
ROW_SQL = (
    "SELECT D.sample_time AS t, D.sample_value AS v FROM dataview "
    f"WHERE F.station = 'ISK' AND D.sample_time >= {DAY0} "
    f"AND D.sample_time < {DAY0 + HOUR_MS}"
)
CHEAP_SQL = (
    "SELECT COUNT(*) AS n FROM dataview "
    f"WHERE F.station = 'ISK' AND D.sample_time >= {DAY0} "
    f"AND D.sample_time < {DAY0 + HOUR_MS}"
)


@pytest.fixture()
def db(tiny_repo):
    db, _ = prepare("lazy", tiny_repo[0])
    yield db
    db.close()


def make_cold_and_slow(db, delay_ms: float) -> None:
    """Model a remote repository: every chunk fetch pays ``delay_ms``."""
    db.database.chunk_loader.io_delay_ms = delay_ms
    db.database.recycler.spill_on_evict = False
    db.database.recycler.clear(spilled=True)


def record_engine_exits(db, monkeypatch) -> list:
    """Wrap the engine entry the server calls; log (exit time, error)."""
    exits: list = []
    inner = db.query_with_derivation

    def recorded(*args, **kwargs):
        error = None
        try:
            return inner(*args, **kwargs)
        except BaseException as exc:
            error = exc
            raise
        finally:
            exits.append((time.monotonic(), error))

    monkeypatch.setattr(db, "query_with_derivation", recorded)
    return exits


def rows_equal(wire_rows, local_rows) -> bool:
    if len(wire_rows) != len(local_rows):
        return False
    for wire, local in zip(wire_rows, local_rows):
        if len(wire) != len(local):
            return False
        for a, b in zip(wire, local):
            both_nan = (
                isinstance(a, float) and isinstance(b, float)
                and math.isnan(a) and math.isnan(b)
            )
            if not both_nan and a != b:
                return False
    return True


class TestWireProtocol:
    def test_streamed_results_bit_identical_to_in_process(self, db):
        expected = {
            sql: db.query(sql) for sql in (SLOW_SQL, ROW_SQL)
        }
        with start_in_thread(db, ServerConfig(pool_size=2)) as handle:
            with ServingClient(*handle.address) as client:
                for sql, local in expected.items():
                    response = client.query(sql)
                    assert response.status == 200
                    assert response.columns == list(local.table.schema.names)
                    local_rows = [list(row) for row in local.table.rows()]
                    assert rows_equal(response.rows, local_rows)
                    assert response.payload["row_count"] == len(local_rows)
                    assert response.payload["stats"]["seconds"] >= 0

    def test_health_errors_and_get_query(self, db):
        with start_in_thread(db, ServerConfig(pool_size=1)) as handle:
            with ServingClient(*handle.address) as client:
                assert client.health() == {"status": "ok"}
                no_sql = client._round_trip("POST", "/query", "{}")
                assert no_sql.status == 400
                bad_sql = client.query("SELEKT nonsense")
                assert bad_sql.status == 400
                missing = client._round_trip("GET", "/nope")
                assert missing.status == 404
                wrong_method = client._round_trip("DELETE", "/query")
                assert wrong_method.status == 405
                via_get = client._round_trip(
                    "GET", "/query?sql=" + quote(CHEAP_SQL)
                )
                assert via_get.status == 200
                assert via_get.payload["row_count"] == 1
        assert handle.server.stats.bad_requests == 2

    def test_stats_counters_match_cache_json_serialization(self, db):
        """`/stats` and `repro cache --json` share one snapshot helper."""
        with start_in_thread(db, ServerConfig(pool_size=1)) as handle:
            with ServingClient(*handle.address) as client:
                assert client.query(CHEAP_SQL).status == 200
                wire = client.stats()
                local = db.counters_snapshot()
        assert wire["counters"] == local
        assert wire["server"]["queries_ok"] == 1
        assert wire["admission"]["admitted_total"] == 1
        assert wire["counters"]["disk"]["enabled"] == 1  # store always exists
        # Golden key sets: every section and key of /stats is held here, so
        # a refactor of how counters are rendered cannot drop or rename one.
        assert key_sets(wire, GOLDEN_WIRE_KEYS) == GOLDEN_WIRE_KEYS
        assert key_sets(local, GOLDEN_COUNTER_KEYS) == GOLDEN_COUNTER_KEYS

    def test_opt_in_counter_sections_hold_their_keys(self, tiny_repo):
        options = TwoStageOptions(prefetch=True, result_cache=True)
        db, _ = prepare("lazy", tiny_repo[0], options=options)
        try:
            snapshot = db.counters_snapshot()
        finally:
            db.close()
        expected = {**GOLDEN_COUNTER_KEYS, **GOLDEN_OPT_IN_KEYS}
        assert key_sets(snapshot, expected) == expected


def key_sets(snapshot: dict, like: dict) -> dict:
    """Section -> key set of ``snapshot``, with the sections of ``like``."""
    assert set(snapshot) == set(like)
    return {section: set(snapshot[section]) for section in snapshot}


GOLDEN_COUNTER_KEYS = {
    "memory": {
        "entries", "budget_bytes", "bytes_resident", "bytes_mapped",
        "hits", "misses", "coalesced", "insertions", "evictions",
        "bytes_evicted", "rehydrates", "spills", "bytes_spilled",
        "spill_errors",
    },
    "disk": {
        "enabled", "entries", "bytes_stored", "spills", "rehydrates",
        "misses", "bytes_spilled", "bytes_rehydrated", "invalid_entries",
        "swept_dirs", "restored_entries",
    },
    "planner": {
        "plans_built", "chunks_considered", "chunks_pruned",
        "chunks_scheduled",
    },
    "chunk_stats": {"chunks_tracked", "chunks_enriched"},
    "plan_cache": {
        "lookups", "hits", "misses", "invalidations", "evictions", "entries",
    },
    "facade": {
        "queries_executed", "derivations", "windows_materialized",
        "chunks_loaded_total", "result_cache_hits", "result_cache_subsumed",
        "chunks_shared",
    },
}
GOLDEN_OPT_IN_KEYS = {
    "prefetch": {"issued", "completed", "failed", "hits"},
    "result_cache": {
        "lookups", "exact_hits", "subsumption_hits", "misses",
        "insertions", "evictions", "invalidations", "bytes_inserted",
        "bytes_evicted", "entries", "budget_bytes", "bytes_cached",
    },
}
GOLDEN_WIRE_KEYS = {
    "server": {
        "requests_total", "queries_ok", "rejected_saturated",
        "rejected_rate_limited", "rejected_draining", "timeouts",
        "bad_requests", "errors", "rows_streamed", "draining",
    },
    "admission": {
        "capacity", "max_queue", "active", "queued", "admitted_total",
        "rejected_total", "service_ewma_ms",
    },
    "counters": set(GOLDEN_COUNTER_KEYS),
}


class TestAdmissionControl:
    def test_pool_exhaustion_sheds_instead_of_queueing(self, db):
        make_cold_and_slow(db, delay_ms=300.0)
        config = ServerConfig(pool_size=1, max_queue=0)
        with start_in_thread(db, config) as handle:
            slow_result: list = []

            def occupy():
                with ServingClient(*handle.address) as client:
                    slow_result.append(client.query(SLOW_SQL))

            thread = threading.Thread(target=occupy)
            thread.start()
            time.sleep(0.1)  # the slot is taken well before the fetch ends
            with ServingClient(*handle.address) as client:
                started = time.monotonic()
                shed = client.query(SLOW_SQL)
                shed_latency = time.monotonic() - started
            thread.join(timeout=30)
            assert not thread.is_alive()

            assert shed.status == 503
            assert shed.retry_after is not None and shed.retry_after >= 1
            # Shedding is immediate — the request never waited for a slot.
            assert shed_latency < 0.2
            assert slow_result[0].status == 200
            assert handle.server.stats.rejected_saturated == 1
            assert handle.server.admission.rejected_total == 1

    def test_rate_limited_client_does_not_starve_others(self, db):
        config = ServerConfig(
            pool_size=2, rate_limit_qps=0.1, rate_limit_burst=1.0
        )
        with start_in_thread(db, config) as handle:
            greedy = ServingClient(*handle.address, client_id="greedy")
            polite = ServingClient(*handle.address, client_id="polite")
            try:
                assert greedy.query(CHEAP_SQL).status == 200
                limited = greedy.query(CHEAP_SQL)
                assert limited.status == 429
                assert limited.retry_after is not None
                assert limited.retry_after >= 1
                # A different client id is admitted while greedy backs off.
                assert polite.query(CHEAP_SQL).status == 200
            finally:
                greedy.close()
                polite.close()
            assert handle.server.stats.rejected_rate_limited == 1
            # queries_ok is counted just *after* the last chunk is written
            # (the handler may still be unwinding when the client reads it).
            deadline = time.monotonic() + 2.0
            while (
                handle.server.stats.queries_ok < 2
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert handle.server.stats.queries_ok == 2

    def test_timeout_cancels_query_and_releases_session(
        self, db, monkeypatch
    ):
        make_cold_and_slow(db, delay_ms=400.0)
        engine_exits = record_engine_exits(db, monkeypatch)
        config = ServerConfig(pool_size=1, request_timeout_s=0.25)
        with start_in_thread(db, config) as handle:
            with ServingClient(*handle.address) as client:
                timed_out = client.query(SLOW_SQL)
                answered = time.monotonic()
                assert timed_out.status == 504
                assert "timeout" in timed_out.payload["error"]
                # The cancel token unwound the engine call before the 504
                # was written.
                assert len(engine_exits) == 1
                exited, error = engine_exits[0]
                assert exited <= answered
                assert isinstance(error, QueryCancelled)
                # The admission slot frees just *after* the 504 is written
                # (the handler is still unwinding when the client reads it).
                deadline = time.monotonic() + 2.0
                while (
                    handle.server.admission.active
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                assert handle.server.admission.active == 0
                assert handle.server.stats.timeouts == 1
            # The slot is genuinely reusable: the next query succeeds on
            # the same (only) slot once fetches are fast again.
            db.database.chunk_loader.io_delay_ms = 0.0
            with ServingClient(*handle.address) as client:
                retry = client.query(SLOW_SQL)
                assert retry.status == 200
                assert retry.payload["row_count"] == 1


class TestGracefulShutdown:
    def test_drain_finishes_in_flight_query_then_refuses(self, db):
        expected = db.query(SLOW_SQL)
        expected_rows = [list(row) for row in expected.table.rows()]
        make_cold_and_slow(db, delay_ms=300.0)
        with start_in_thread(db, ServerConfig(pool_size=2)) as handle:
            in_flight: list = []

            def run_slow():
                with ServingClient(*handle.address) as client:
                    in_flight.append(client.query(SLOW_SQL))

            thread = threading.Thread(target=run_slow)
            thread.start()
            time.sleep(0.1)  # in flight: admitted, fetching chunks
            handle.stop(drain=True)  # blocks until the query streamed out
            thread.join(timeout=30)
            assert not thread.is_alive()

            assert in_flight[0].status == 200
            assert rows_equal(in_flight[0].rows, expected_rows)
            # The listening socket is gone: new clients are refused.
            with pytest.raises(OSError):
                with ServingClient(*handle.address, timeout=2.0) as client:
                    client.query(CHEAP_SQL)

    def test_stop_without_drain_cancels_running_query(
        self, tiny_repo, monkeypatch
    ):
        # Every chunk of every station, fetched one at a time: far longer
        # than the test waits unless the stop cancels it.
        db, _ = prepare(
            "lazy", tiny_repo[0], options=TwoStageOptions(io_threads=1)
        )
        try:
            make_cold_and_slow(db, delay_ms=400.0)
            engine_exits = record_engine_exits(db, monkeypatch)
            all_chunks = (
                "SELECT COUNT(*) AS n FROM dataview "
                f"WHERE D.sample_time >= {DAY0} AND D.sample_time < {DAY2}"
            )
            with start_in_thread(db, ServerConfig(pool_size=1)) as handle:
                with ServingClient(*handle.address, timeout=30.0) as client:

                    def run() -> None:
                        try:
                            client.query(all_chunks)
                        except OSError:
                            pass  # the stop cut the connection

                    thread = threading.Thread(target=run)
                    thread.start()
                    deadline = time.monotonic() + 10.0
                    while (
                        not handle.server.admission.active
                        and time.monotonic() < deadline
                    ):
                        time.sleep(0.01)
                    time.sleep(0.2)  # executing: inside its first fetch
                    stopping = time.monotonic()
                    handle.stop(drain=False)
                    stopped = time.monotonic()
                    thread.join(timeout=30)

            assert len(engine_exits) == 1
            exited, error = engine_exits[0]
            assert isinstance(error, QueryCancelled)
            # Unwound at the next chunk boundary, not after all 8 fetches.
            assert exited - stopping < 1.5
            assert stopped - stopping < 1.5
        finally:
            db.close()


class TestPrefetchHistory:
    def test_history_follows_the_client_not_a_slot(self, tiny_repo):
        options = TwoStageOptions(prefetch=True)
        db, _ = prepare("lazy", tiny_repo[0], options=options)
        try:
            with start_in_thread(db, ServerConfig(pool_size=1)) as handle:
                alice = ServingClient(*handle.address, client_id="alice")
                bob = ServingClient(*handle.address, client_id="bob")
                try:
                    for day in range(2):
                        for client, station in (
                            (alice, "ISK"), (bob, "FIAM"),
                        ):
                            response = client.query(
                                "SELECT COUNT(*) AS n FROM dataview "
                                f"WHERE F.station = '{station}' "
                                "AND D.sample_time >= "
                                f"{DAY0 + day * MILLIS_PER_DAY} "
                                "AND D.sample_time < "
                                f"{DAY0 + (day + 1) * MILLIS_PER_DAY}"
                            )
                            assert response.status == 200
                finally:
                    alice.close()
                    bob.close()
            db.prefetcher.wait_idle()
            prefetcher = db.prefetcher
            with prefetcher._lock:
                histories = dict(prefetcher._sessions)
            # One history per client id, each holding only its station.
            assert set(histories) == {"alice", "bob"}
            assert {g[0] for g in histories["alice"].last_max_time} == {"ISK"}
            assert {g[0] for g in histories["bob"].last_max_time} == {"FIAM"}
        finally:
            db.close()
