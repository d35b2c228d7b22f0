"""Workload-aware prefetcher: prediction, warming, per-session history."""

import pytest

from repro.core.loading import prepare
from repro.core.prefetch import WorkloadPrefetcher
from repro.core.two_stage import TwoStageOptions
from repro.data.ingv import EPOCH_2010_MS
from repro.workloads import QueryParams, t4_query

MILLIS_PER_DAY = 24 * 3600 * 1000


def day_sql(day: int, station="ISK", channel="BHE") -> str:
    start = EPOCH_2010_MS + day * MILLIS_PER_DAY
    return t4_query(
        QueryParams(
            station=station, channel=channel,
            start_ms=start, end_ms=start + MILLIS_PER_DAY,
        )
    )


def fetch_outcomes(db, *uris: str) -> dict[str, str]:
    """Fetch ``uris`` as a query would; the per-chunk outcomes it reports."""
    return {uri: db.database.fetch_chunk(uri, "D")[1] for uri in uris}


def station_uris(db, station: str) -> list[str]:
    files = db.database.catalog.table("F").data
    return sorted(
        uri
        for uri, st in zip(
            files.column("uri").values, files.column("station").values
        )
        if st == station
    )


class TestPrediction:
    def test_successor_of_day0_is_day1(self, lazy_db):
        prefetcher = WorkloadPrefetcher(lazy_db.database)
        day0, day1 = station_uris(lazy_db, "ISK")
        submitted = prefetcher.note_query(1, [day0])
        assert submitted == [day1]
        prefetcher.wait_idle()
        assert day1 in lazy_db.database.recycler
        assert prefetcher.stats_snapshot()["completed"] == 1

    def test_last_chunk_has_no_successor(self, lazy_db):
        prefetcher = WorkloadPrefetcher(lazy_db.database)
        _, day1 = station_uris(lazy_db, "ISK")
        assert prefetcher.note_query(1, [day1]) == []

    def test_prediction_skips_already_required(self, lazy_db):
        prefetcher = WorkloadPrefetcher(lazy_db.database)
        day0, day1 = station_uris(lazy_db, "ISK")
        assert prefetcher.note_query(1, [day0, day1]) == []

    def test_hits_counted_once_warmed(self, lazy_db):
        prefetcher = WorkloadPrefetcher(lazy_db.database)
        day0, day1 = station_uris(lazy_db, "ISK")
        assert prefetcher.record_hits(fetch_outcomes(lazy_db, day0)) == 0
        prefetcher.note_query(1, [day0])
        prefetcher.wait_idle()
        assert prefetcher.record_hits(fetch_outcomes(lazy_db, day1)) == 1
        assert prefetcher.stats_snapshot()["hits"] == 1

    def test_evicted_chunk_is_no_hit_and_warmable_again(self, lazy_db):
        prefetcher = WorkloadPrefetcher(lazy_db.database)
        day0, day1 = station_uris(lazy_db, "ISK")
        prefetcher.note_query(1, [day0])
        prefetcher.wait_idle()
        assert day1 in lazy_db.database.recycler
        # Evict everything: the warmed chunk is gone from the cache, so
        # the query needing it reports a cold load.
        lazy_db.database.recycler.clear()
        assert prefetcher.record_hits({day1: "loaded"}) == 0
        assert prefetcher.stats_snapshot()["hits"] == 0
        # ...and it is predictable (and warmable) again.
        assert prefetcher.note_query(1, [day0]) == [day1]
        prefetcher.wait_idle()
        assert day1 in lazy_db.database.recycler
        assert prefetcher.record_hits(fetch_outcomes(lazy_db, day1)) == 1

    def test_pruned_but_resident_chunk_keeps_warm_status(self, lazy_db):
        # A warmed chunk the planner prunes from a later query is never
        # fetched: neither a hit nor forgotten.
        prefetcher = WorkloadPrefetcher(lazy_db.database)
        day0, day1 = station_uris(lazy_db, "ISK")
        prefetcher.note_query(1, [day0])
        prefetcher.wait_idle()
        assert prefetcher.record_hits({day0: "loaded"}) == 0
        with prefetcher._lock:
            assert day1 in prefetcher._warmed  # pruned, still warm
        assert prefetcher.record_hits(fetch_outcomes(lazy_db, day1)) == 1

    def test_session_history_is_bounded(self, lazy_db):
        prefetcher = WorkloadPrefetcher(lazy_db.database)
        prefetcher._max_sessions = 4
        day0, _ = station_uris(lazy_db, "ISK")
        for session_id in range(10):
            prefetcher.note_query(session_id, [day0])
        assert len(prefetcher._sessions) <= 4
        assert 9 in prefetcher._sessions  # most recent survive
        assert 0 not in prefetcher._sessions

    def test_forward_streak_unlocks_depth(self, lazy_db):
        # Three ISK.BHE chunks do not exist at test scale, so exercise the
        # streak logic on the (station-grouped) frontier bookkeeping only.
        prefetcher = WorkloadPrefetcher(lazy_db.database, depth=2)
        day0, day1 = station_uris(lazy_db, "ISK")
        prefetcher.note_query(7, [day0])
        history = prefetcher._sessions[7]
        assert history.forward_streak == 1
        prefetcher.note_query(7, [day1])  # moved forward in time
        assert prefetcher._sessions[7].forward_streak == 2
        prefetcher.note_query(7, [day1])  # stalled: streak resets
        assert prefetcher._sessions[7].forward_streak == 1


class TestWarmedBookkeeping:
    def test_hit_is_counted_once_per_warm(self, lazy_db):
        prefetcher = WorkloadPrefetcher(lazy_db.database)
        day0, day1 = station_uris(lazy_db, "ISK")
        prefetcher.note_query(1, [day0])
        prefetcher.wait_idle()
        # A dashboard re-reading the still-resident chunk: the first query
        # is the prefetcher's contribution, the repeats are the recycler's.
        for expected in (1, 0, 0):
            hits = prefetcher.record_hits(fetch_outcomes(lazy_db, day1))
            assert hits == expected
        assert prefetcher.stats_snapshot()["hits"] == 1
        # A fresh warm of the same URI earns a fresh (single) hit.
        lazy_db.database.recycler.clear()
        prefetcher.note_query(1, [day0])
        prefetcher.wait_idle()
        assert prefetcher.record_hits(fetch_outcomes(lazy_db, day1)) == 1
        assert prefetcher.record_hits(fetch_outcomes(lazy_db, day1)) == 0
        assert prefetcher.stats_snapshot()["hits"] == 2

    def test_warmed_set_is_lru_bounded(self, lazy_db):
        prefetcher = WorkloadPrefetcher(lazy_db.database, max_warmed=3)
        uris = sorted(
            lazy_db.database.catalog.table("F").data.column("uri").to_list()
        )
        assert len(uris) == 8
        for uri in uris:
            prefetcher._warm_one(uri)
        with prefetcher._lock:
            assert len(prefetcher._warmed) == 3
            # LRU: the most recently warmed survive.
            assert set(prefetcher._warmed) == set(uris[-3:])

    def test_soak_pruned_while_warm_does_not_accumulate(self, lazy_db):
        """The long-running-server scenario: chunks get warmed, then every
        later query planner-prunes them (resident but never loaded), so
        nothing ever evicts them from the warmed set organically."""
        prefetcher = WorkloadPrefetcher(lazy_db.database, max_warmed=4)
        uris = sorted(
            lazy_db.database.catalog.table("F").data.column("uri").to_list()
        )
        for round_no in range(50):
            uri = uris[round_no % len(uris)]
            prefetcher._warm_one(uri)
            # Pruned while warm: the query fetched nothing.
            prefetcher.record_hits({})
            with prefetcher._lock:
                assert len(prefetcher._warmed) <= 4
        assert prefetcher.stats_snapshot()["hits"] == 0


class TestFacadeIntegration:
    @pytest.fixture()
    def prefetch_db(self, tiny_repo):
        db, _ = prepare(
            "lazy", tiny_repo[0], options=TwoStageOptions(prefetch=True)
        )
        yield db
        db.close()

    def test_sequential_session_is_served_from_prefetch(self, prefetch_db):
        first = prefetch_db.query(day_sql(0))
        assert first.stats.chunks_loaded == 1
        assert first.stats.chunks_prefetched == 0
        prefetch_db.prefetcher.wait_idle()
        second = prefetch_db.query(day_sql(1))
        # The day-1 chunk was warmed while the client was "thinking".
        assert second.stats.chunks_loaded == 0
        assert second.stats.chunks_prefetched == 1
        snapshot = prefetch_db.prefetcher.stats_snapshot()
        assert snapshot["issued"] == 1
        assert snapshot["completed"] == 1
        assert snapshot["hits"] == 1

    def test_eviction_between_queries_reports_no_phantom_hit(
        self, prefetch_db
    ):
        prefetch_db.query(day_sql(0))
        prefetch_db.prefetcher.wait_idle()
        # Evict the warmed chunk; the next query cold-loads it, and by
        # hit-recording time it is resident again — the counter must use
        # the fetch outcome, not an after-the-fact probe.
        prefetch_db.database.recycler.clear()
        second = prefetch_db.query(day_sql(1))
        assert second.stats.chunks_prefetched == 0
        assert second.stats.chunks_loaded >= 1

    def test_shared_scan_session_counts_prefetch_hits(self, tiny_repo):
        """Scan sharing is always on: a client's hit is still read off
        its scan's fetch outcome."""
        db, _ = prepare(
            "lazy", tiny_repo[0], options=TwoStageOptions(prefetch=True)
        )
        try:
            db.query_with_derivation(day_sql(0), session_id="client")
            db.prefetcher.wait_idle()
            second, _ = db.query_with_derivation(
                day_sql(1), session_id="client"
            )
            assert second.stats.chunks_loaded == 0
            assert second.stats.chunks_prefetched == 1
            assert db.prefetcher.stats_snapshot()["hits"] == 1
        finally:
            db.close()

    def test_prefetch_disabled_by_default(self, lazy_db):
        assert lazy_db.prefetcher is None
        result = lazy_db.query(day_sql(0))
        assert result.stats.chunks_prefetched == 0

    def test_planner_stats_expose_prefetch_section(self, prefetch_db):
        stats = prefetch_db.planner_stats()
        assert "prefetch" in stats
        assert "planner" in stats
        # Statistics track decoded chunks only: none right after
        # registration, then each chunk a query or a warm-up decoded.
        assert stats["chunk_stats"]["chunks_tracked"] == 0
        prefetch_db.query(day_sql(0))
        prefetch_db.prefetcher.wait_idle()
        counts = prefetch_db.planner_stats()["chunk_stats"]
        assert counts["chunks_tracked"] == counts["chunks_enriched"] >= 1
