"""Identical concurrent chunk scans share one in-flight result.

Bit-identity with a lone scan is the contract: sharing may only change
*who* runs a scan, never what any query sees.  Sharing is not an option:
every ``ParallelChunkScan`` goes through ``Database.scan_once``.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.loading import prepare
from repro.core.two_stage import TwoStageOptions
from repro.data.ingv import EPOCH_2010_MS
from repro.engine import algebra
from repro.engine.errors import QueryCancelled
from repro.engine.physical import CancelToken, ExecutionContext, execute_plan
from repro.engine.table import Schema, Table
from repro.workloads.queries import QueryParams, t4_query

MILLIS_PER_DAY = 24 * 3600 * 1000


def two_day_sql(station: str = "ISK", channel: str = "BHE") -> str:
    return t4_query(
        QueryParams(
            station=station,
            channel=channel,
            start_ms=EPOCH_2010_MS,
            end_ms=EPOCH_2010_MS + 2 * MILLIS_PER_DAY,
        )
    )


def fetched(stats) -> int:
    return stats.chunks_loaded + stats.chunks_rehydrated + stats.chunks_from_cache


def planned(result) -> int:
    return sum(len(p.chunks) for p in result.rewrite.chunk_plans)


@pytest.fixture()
def db(tiny_repo):
    db, _ = prepare("lazy", tiny_repo[0])
    yield db
    db.close()


@pytest.fixture(scope="module")
def serial_rows(tiny_repo):
    """sql -> rows of a lone serial scan."""
    reference, _ = prepare(
        "lazy", tiny_repo[0], options=TwoStageOptions(io_threads=1)
    )
    cache: dict[str, list] = {}

    def rows(sql: str) -> list:
        if sql not in cache:
            cache[sql] = reference.query(sql).table.to_dicts()
        return cache[sql]

    yield rows
    reference.close()


class GatedFetch:
    """Holds the first chunk fetch of the database until ``release()``.

    The query whose fetch is held keeps its scan in flight, so the test
    decides what overlaps it.  On release the held fetch runs ``fault``
    (when given) before fetching; later fetches pass straight through.
    """

    def __init__(self, database, fault=None) -> None:
        self._inner = database.fetch_chunk
        self._fault = fault
        self._open = threading.Event()
        self._lock = threading.Lock()
        self._first = True
        self.held = threading.Event()
        database.fetch_chunk = self

    def __call__(self, uri, table_name):
        with self._lock:
            first, self._first = self._first, False
        if first:
            self.held.set()
            self._open.wait(timeout=30)
            if self._fault is not None:
                self._fault()
        return self._inner(uri, table_name)

    def release(self) -> None:
        self._open.set()


def run_async(fn, *args, **kwargs) -> tuple[threading.Thread, list]:
    """Run ``fn`` on a thread; the list receives its result or exception."""
    outcome: list = []

    def target():
        try:
            outcome.append(fn(*args, **kwargs))
        except BaseException as exc:
            outcome.append(exc)

    thread = threading.Thread(target=target)
    thread.start()
    return thread, outcome


def start_owner(
    db, sql: str, fault=None, **kwargs
) -> tuple[GatedFetch, threading.Thread, list]:
    """Start ``sql`` with its first fetch held: its scan stays in flight."""
    db.drop_caches()
    gate = GatedFetch(db.database, fault)
    thread, outcome = run_async(db.query, sql, **kwargs)
    assert gate.held.wait(timeout=10)
    return gate, thread, outcome


class TestBitIdentity:
    def test_single_consumer_matches_private_scan(self, db, serial_rows):
        sql = two_day_sql()
        result = db.query(sql)
        assert result.table.to_dicts() == serial_rows(sql)
        # Nobody to share with: the lone scan fetched every planned chunk.
        assert result.stats.chunks_shared == 0
        assert fetched(result.stats) == planned(result)
        assert not db.database._scans

    def test_concurrent_consumers_match_private_scan(self, db, serial_rows):
        sql = two_day_sql()
        clients = 4
        barrier = threading.Barrier(clients)

        def client(_):
            barrier.wait()
            return db.query(sql)

        # Slow loads keep the first scan in flight while the rest arrive.
        db.database.chunk_loader.io_delay_ms = 40.0
        with ThreadPoolExecutor(max_workers=clients) as executor:
            results = list(executor.map(client, range(clients)))
        assert all(r.table.to_dicts() == serial_rows(sql) for r in results)
        # Conservation over the wave: every planned chunk was either
        # fetched by a query or handed to it by the scan it joined.
        plan_size = planned(results[0])
        assert sum(
            fetched(r.stats) + r.stats.chunks_shared for r in results
        ) == clients * plan_size
        assert sum(r.stats.chunks_shared for r in results) >= plan_size

    def test_mixed_predicates_share_chunks_not_results(self, db, serial_rows):
        # A different scan of the same table runs its own pass while the
        # first is in flight: it completes before the held scan does.
        sql = two_day_sql()
        others = [
            two_day_sql("FIAM", "HHZ"),  # another pushed predicate
            "SELECT COUNT(*) AS n FROM dataview "  # none pushed
            "WHERE F.station = 'ISK' AND F.channel = 'BHE'",
        ]
        for other in others:
            gate, owner, owner_outcome = start_owner(db, sql)
            try:
                result = db.query(other)
            finally:
                gate.release()
            owner.join(timeout=30)
            assert result.stats.chunks_shared == 0
            assert result.table.to_dicts() == serial_rows(other)
            (owned,) = owner_outcome
            assert owned.table.to_dicts() == serial_rows(sql)
        assert not db.database._scans

    def test_other_columns_are_not_shared(self, db):
        # Same chunks, no pushed predicate, a narrower scan schema.
        database = db.database
        uris = sorted(database.chunk_loader.file_ids)
        wide = database.qualified_schema("D")
        narrow = Schema(wide.fields[:2])
        chunk_plan = database.chunk_planner.plan(uris, "D")

        def scan(schema):
            ctx = ExecutionContext(database)
            plan = algebra.ParallelChunkScan(chunk_plan, "D", schema)
            return execute_plan(plan, ctx), ctx.stats

        db.drop_caches()
        gate = GatedFetch(database)
        owner, owner_outcome = run_async(scan, wide)
        assert gate.held.wait(timeout=10)
        try:
            table, stats = scan(narrow)
        finally:
            gate.release()
        owner.join(timeout=30)
        assert stats.chunks_shared == 0
        assert table.schema.names == narrow.names
        ((wide_table, _),) = owner_outcome
        assert table.to_dicts() == wide_table.project(narrow.names).to_dicts()


class TestSharingAccounting:
    def test_late_attach_picks_up_missed_chunks(
        self, db, serial_rows, parking_token
    ):
        sql = two_day_sql()
        gate, owner, owner_outcome = start_owner(db, sql)
        late, late_outcome = run_async(db.query, sql, cancel=parking_token)
        parking_token.wait_until_parked()
        gate.release()
        owner.join(timeout=30)
        late.join(timeout=30)
        (owned,), (joined,) = owner_outcome, late_outcome
        # The late arrival fetched nothing: the owner's table is its answer.
        assert joined.table.to_dicts() == serial_rows(sql)
        assert fetched(joined.stats) == 0
        assert joined.stats.chunks_shared == planned(joined)
        assert owned.stats.chunks_shared == 0
        assert fetched(owned.stats) == planned(owned)
        assert not db.database._scans

    def test_write_to_f_stops_a_later_scan_joining(self, db, serial_rows):
        sql = two_day_sql()
        gate, owner, owner_outcome = start_owner(db, sql)
        try:
            # Any write to F moves the version of what D's chunks are.
            files = db.database.catalog.table("F")
            db.database.insert("F", Table.empty(files.schema))
            result = db.query(sql)
        finally:
            gate.release()
        owner.join(timeout=30)
        assert result.stats.chunks_shared == 0
        assert result.table.to_dicts() == serial_rows(sql)
        (owned,) = owner_outcome
        assert owned.table.to_dicts() == serial_rows(sql)

    def test_facade_counters_roll_up(self, db):
        sql = two_day_sql()
        db.database.chunk_loader.io_delay_ms = 20.0
        with ThreadPoolExecutor(max_workers=4) as executor:
            results = list(executor.map(lambda _: db.query(sql), range(4)))
        snapshot = db.counters_snapshot()
        assert snapshot["facade"]["queries_executed"] == 4
        assert snapshot["facade"]["chunks_shared"] == sum(
            r.stats.chunks_shared for r in results
        )
        assert "shared_scan" not in snapshot


class TestCancellation:
    def test_cancel_one_consumer_leaves_wave_intact(self, db, serial_rows):
        """One consumer cancelled mid-scan: it unwinds with QueryCancelled;
        the other consumers of the same wave complete with correct
        results."""
        sql = two_day_sql()
        db.database.chunk_loader.io_delay_ms = 120.0

        token = CancelToken()
        barrier = threading.Barrier(4)
        outcomes: list = []

        def victim():
            barrier.wait()
            try:
                db.query(sql, cancel=token)
                outcomes.append("completed")
            except QueryCancelled:
                outcomes.append("cancelled")

        def survivor():
            barrier.wait()
            return db.query(sql).table.to_dicts()

        with ThreadPoolExecutor(max_workers=4) as executor:
            victim_future = executor.submit(victim)
            survivor_futures = [executor.submit(survivor) for _ in range(3)]
            time.sleep(0.06)  # let the wave get mid-scan
            token.cancel()
            victim_future.result(timeout=30)
            results = [f.result(timeout=30) for f in survivor_futures]
        db.database.chunk_loader.io_delay_ms = 0.0

        assert outcomes == ["cancelled"]
        assert all(rows == serial_rows(sql) for rows in results)
        # Nothing of the wave's scan outlives it.
        assert not db.database._scans
        assert db.query(sql).table.to_dicts() == serial_rows(sql)

    @pytest.mark.parametrize("fault", ["cancel", "raise"])
    def test_waiter_takes_over_when_owner_fails(
        self, db, serial_rows, parking_token, fault
    ):
        """A waiter on an owner that is cancelled, or whose fetch raises,
        runs the scan itself instead of failing or hanging."""
        sql = two_day_sql()
        token = CancelToken()

        def fail():
            if fault == "raise":
                raise OSError("repository unreachable")
            token.cancel()

        gate, owner, owner_outcome = start_owner(db, sql, fail, cancel=token)
        waiter, waiter_outcome = run_async(db.query, sql, cancel=parking_token)
        parking_token.wait_until_parked()
        gate.release()
        owner.join(timeout=30)
        waiter.join(timeout=30)
        assert not owner.is_alive() and not waiter.is_alive()

        (error,) = owner_outcome
        assert isinstance(error, QueryCancelled if fault == "cancel" else OSError)
        (result,) = waiter_outcome
        assert result.table.to_dicts() == serial_rows(sql)
        assert result.stats.chunks_shared == 0
        assert fetched(result.stats) == planned(result)
        assert not db.database._scans
        # The shared I/O pool drained: a sentinel queued behind it runs.
        db.database.io_executor(4).submit(lambda: None).result(timeout=10)


class TestScanOnce:
    def test_stress_owners_equal_runs_and_nothing_left(self, db):
        """More threads than cores, a tiny switch interval: per key, the
        scans that ran are exactly the callers that owned, every waiter
        got an owner's table, and the in-flight map ends empty."""
        database = db.database
        threads, rounds = 8, 40
        runs: list[object] = []
        runs_lock = threading.Lock()

        def scan():
            table = Table.empty(database.qualified_schema("D"))
            with runs_lock:
                runs.append(table)
            time.sleep(0.0005)  # let the other callers arrive
            return table

        def caller(round_no: int) -> tuple[object, bool]:
            return database.scan_once(("stress", round_no), scan, lambda: None)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=threads) as executor:
                outcomes = list(
                    executor.map(
                        caller,
                        [r for r in range(rounds) for _ in range(threads)],
                    )
                )
        finally:
            sys.setswitchinterval(interval)
        owners = [table for table, shared in outcomes if not shared]
        assert len(owners) == len(runs)
        produced = {id(table) for table in runs}
        assert all(id(table) in produced for table, _ in outcomes)
        assert any(shared for _, shared in outcomes)
        assert not database._scans
