"""Shared chunk scans: overlapping consumers share one pass per table.

Bit-identity with private scans is the contract: ``shared_scan=True`` may
only change *who* materializes a chunk, never what any consumer sees.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.loading import prepare
from repro.core.two_stage import TwoStageOptions
from repro.data.ingv import EPOCH_2010_MS
from repro.engine.errors import QueryCancelled
from repro.engine.physical import CancelToken
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


@pytest.fixture()
def shared_db(tiny_repo):
    db, _ = prepare(
        "lazy",
        tiny_repo[0],
        options=TwoStageOptions(io_threads=4, shared_scan=True),
    )
    yield db
    db.close()


class TestBitIdentity:
    def test_single_consumer_matches_private_scan(self, tiny_repo):
        sql = two_day_sql()
        private_db, _ = prepare(
            "lazy", tiny_repo[0], options=TwoStageOptions(io_threads=4)
        )
        shared_db, _ = prepare(
            "lazy",
            tiny_repo[0],
            options=TwoStageOptions(io_threads=4, shared_scan=True),
        )
        try:
            expected = private_db.query(sql)
            observed = shared_db.query(sql)
            assert observed.table.to_dicts() == expected.table.to_dicts()
            # Nobody to share with: the lone consumer is not "attached".
            assert observed.stats.shared_scan_attached == 0
        finally:
            private_db.close()
            shared_db.close()

    def test_concurrent_consumers_match_private_scan(
        self, tiny_repo, shared_db
    ):
        sql = two_day_sql()
        private_db, _ = prepare(
            "lazy", tiny_repo[0], options=TwoStageOptions(io_threads=4)
        )
        try:
            expected = private_db.query(sql).table.to_dicts()
        finally:
            private_db.close()

        pool = shared_db.session_pool(size=4)
        barrier = threading.Barrier(4)

        def client(_):
            with pool.session() as session:
                barrier.wait()
                return session.query(sql).table.to_dicts()

        with ThreadPoolExecutor(max_workers=4) as executor:
            results = list(executor.map(client, range(4)))
        assert all(rows == expected for rows in results)

    def test_mixed_predicates_share_chunks_not_results(self, shared_db):
        # Two different stations over the same table: overlapping passes
        # must keep each consumer's own predicate filtering intact.
        queries = [two_day_sql("ISK", "BHE"), two_day_sql("FIAM", "HHZ")]
        expected = [shared_db.query(sql).table.to_dicts() for sql in queries]
        shared_db.drop_caches()

        with ThreadPoolExecutor(max_workers=4) as executor:
            observed = list(
                executor.map(
                    lambda sql: shared_db.query(sql).table.to_dicts(),
                    queries * 2,
                )
            )
        assert observed[0] == expected[0]
        assert observed[1] == expected[1]
        assert observed[2] == expected[0]
        assert observed[3] == expected[1]


class TestSharingAccounting:
    def test_wave_shares_deliveries_and_counts_attachments(self, shared_db):
        sql = two_day_sql()
        shared_db.database.chunk_loader.io_delay_ms = 40.0
        pool = shared_db.session_pool(size=4)
        barrier = threading.Barrier(4)

        def client(_):
            with pool.session() as session:
                barrier.wait()
                result = session.query(sql)
                return result.stats

        with ThreadPoolExecutor(max_workers=4) as executor:
            stats = list(executor.map(client, range(4)))
        shared_db.database.chunk_loader.io_delay_ms = 0.0

        snapshot = shared_db.database.shared_scans.stats_snapshot()
        assert snapshot["consumers_total"] == 4
        assert snapshot["passes_started"] >= 1
        # With all four held at a barrier and slow loads, later arrivals
        # attach to the first consumer's pass and share its deliveries.
        assert snapshot["consumers_attached"] >= 1
        assert (
            snapshot["deliveries_shared"] + snapshot["assemblies_shared"] >= 1
        )
        assert sum(s.shared_scan_attached for s in stats) == (
            snapshot["consumers_attached"]
        )
        assert sum(s.chunks_shared for s in stats) >= 1

    def test_late_attach_picks_up_missed_chunks(self, shared_db):
        sql = two_day_sql()
        # Serial owner + slow loads: the first consumer is mid-pass
        # (first chunk in flight) when the second arrives.
        shared_db.database.chunk_loader.io_delay_ms = 150.0
        db = shared_db
        first_stats: list = []

        def first():
            first_stats.append(db.query(sql).stats)

        thread = threading.Thread(target=first)
        thread.start()
        time.sleep(0.08)
        late = db.query(sql)
        thread.join(timeout=30)
        assert not thread.is_alive()
        db.database.chunk_loader.io_delay_ms = 0.0

        assert late.table.to_dicts() == db.query(sql).table.to_dicts()
        # The late arrival attached to the in-flight pass and was handed
        # at least one chunk it did not materialize itself.
        assert late.stats.shared_scan_attached == 1
        assert late.stats.chunks_shared >= 1

    def test_facade_counters_roll_up(self, shared_db):
        sql = two_day_sql()
        with ThreadPoolExecutor(max_workers=4) as executor:
            list(executor.map(lambda _: shared_db.query(sql), range(4)))
        facade = shared_db.counters_snapshot()["facade"]
        assert facade["queries_executed"] == 4
        assert facade["shared_scan_attached"] >= 0
        snapshot = shared_db.counters_snapshot()["shared_scan"]
        assert snapshot["consumers_total"] == 4


class TestCancellation:
    def test_cancel_one_consumer_leaves_wave_intact(self, shared_db):
        """One consumer cancelled mid-pass: it unwinds with QueryCancelled
        and returns its session to the pool; the other consumers of the
        same wave complete with correct results."""
        sql = two_day_sql()
        expected = shared_db.query(sql).table.to_dicts()
        shared_db.drop_caches()
        shared_db.database.chunk_loader.io_delay_ms = 120.0

        pool = shared_db.session_pool(size=4)
        token = CancelToken()
        barrier = threading.Barrier(4)
        outcomes: list = []

        def victim():
            with pool.session() as session:
                barrier.wait()
                try:
                    session.query(sql, cancel=token)
                    outcomes.append("completed")
                except QueryCancelled:
                    outcomes.append("cancelled")

        def survivor():
            with pool.session() as session:
                barrier.wait()
                return session.query(sql).table.to_dicts()

        with ThreadPoolExecutor(max_workers=4) as executor:
            victim_future = executor.submit(victim)
            survivor_futures = [executor.submit(survivor) for _ in range(3)]
            time.sleep(0.06)  # let the wave get mid-pass
            token.cancel()
            victim_future.result(timeout=30)
            results = [f.result(timeout=30) for f in survivor_futures]
        shared_db.database.chunk_loader.io_delay_ms = 0.0

        assert outcomes == ["cancelled"]
        assert all(rows == expected for rows in results)
        # Every session — the cancelled one included — is back in the pool.
        assert pool.stats()["in_use"] == 0
        assert pool.stats()["idle"] == pool.stats()["created"]
        # The scheduler holds no state between waves.
        assert not shared_db.database.shared_scans._passes
        # And the database is still fully usable.
        assert shared_db.query(sql).table.to_dicts() == expected

    def test_abandoned_delivery_is_reclaimed(self, shared_db):
        """A waiter blocked on a cancelled owner's delivery re-claims it
        instead of failing or hanging."""
        sql = two_day_sql()
        expected = shared_db.query(sql).table.to_dicts()
        shared_db.drop_caches()
        shared_db.database.chunk_loader.io_delay_ms = 150.0

        token = CancelToken()
        db = shared_db
        outcomes: list = []

        def owner():
            try:
                db.query(sql, cancel=token)
                outcomes.append("completed")
            except QueryCancelled:
                outcomes.append("cancelled")

        thread = threading.Thread(target=owner)
        thread.start()
        time.sleep(0.06)  # owner claims the chunks, first load in flight
        late = None
        late_error = None

        def late_consumer():
            nonlocal late, late_error
            try:
                late = db.query(sql).table.to_dicts()
            except BaseException as exc:  # pragma: no cover - diagnostics
                late_error = exc

        late_thread = threading.Thread(target=late_consumer)
        late_thread.start()
        time.sleep(0.05)
        token.cancel()
        thread.join(timeout=30)
        late_thread.join(timeout=30)
        db.database.chunk_loader.io_delay_ms = 0.0

        assert not thread.is_alive() and not late_thread.is_alive()
        assert outcomes == ["cancelled"]
        assert late_error is None
        assert late == expected


class TestPlanSurface:
    def test_describe_marks_shared_scans(self, shared_db):
        from repro.engine import algebra

        compiler = shared_db.compiler
        plan, _ = compiler.plan_stage_two(
            compiler.compile(shared_db.bind(two_day_sql()))
        )
        described = []

        def walk(node):
            if isinstance(node, algebra.ParallelChunkScan):
                described.append(node.describe())
            for child in node.children():
                walk(child)

        walk(plan)
        assert described, "stage-two plan has no ParallelChunkScan"
        assert all("shared" in text for text in described)
