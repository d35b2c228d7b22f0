"""Semantic result recycler: fingerprints, subsumption, invalidation."""

import pytest

from repro.core.loading import prepare
from repro.core.result_cache import ResultCache, normalize_plan
from repro.core.two_stage import TwoStageOptions
from repro.data.ingv import EPOCH_2010_MS
from repro.engine.predicates import LiteralBounds
from repro.workloads import QueryParams, t5_query

HOUR_MS = 3600 * 1000

AGG_SQL = (
    "SELECT COUNT(*) AS n, AVG(D.sample_value) AS mean FROM dataview "
    "WHERE F.station = 'ISK' AND D.sample_time >= {} AND D.sample_time < {}"
)
ROW_SQL = (
    "SELECT D.sample_time AS t, D.sample_value AS v FROM dataview "
    "WHERE F.station = 'ISK' AND D.sample_time >= {} AND D.sample_time < {}"
)


@pytest.fixture()
def cached_db(tiny_repo):
    db, _ = prepare(
        "lazy", tiny_repo[0], options=TwoStageOptions(result_cache=True)
    )
    yield db
    db.close()


def cache_stats(db) -> dict:
    return db.planner_stats()["result_cache"]


class TestColumnBounds:
    """Subsumption on the shared per-column bounds type."""

    def covers(self, cached, query) -> bool:
        return LiteralBounds.from_conjuncts(cached).covers(
            LiteralBounds.from_conjuncts(query)
        )

    def test_wider_range_covers_narrower(self):
        assert self.covers([(">=", 0), ("<", 100)], [(">=", 10), ("<", 50)])
        assert self.covers([(">=", 0)], [(">=", 0), ("<", 50)])
        assert not self.covers([(">=", 10)], [(">=", 0)])
        assert not self.covers([("<", 50)], [("<", 100)])

    def test_edge_inclusivity(self):
        # Cached t > 5 does not admit the query's t >= 5 point.
        assert not self.covers([(">", 5)], [(">=", 5)])
        assert self.covers([(">=", 5)], [(">", 5)])
        assert not self.covers([("<", 5)], [("<=", 5)])
        assert self.covers([("<=", 5)], [("<", 5)])

    def test_unbounded_covers_everything(self):
        assert self.covers([], [(">=", 3), ("<", 9)])
        assert self.covers([], [("=", "ISK")])
        assert not self.covers([(">=", 3)], [])

    def test_equality_points(self):
        assert self.covers([(">=", 0), ("<=", 10)], [("=", 5)])
        assert not self.covers([(">=", 0), ("<", 5)], [("=", 5)])
        # A cached equality serves only the identical bound set.
        assert self.covers([("=", "ISK")], [("=", "ISK")])
        assert not self.covers([("=", "ISK")], [("=", "ARCI")])
        assert not self.covers([("=", "ISK")], [])

    def test_redundant_conjuncts_canonicalize(self):
        a = LiteralBounds.from_conjuncts([(">=", 5), (">=", 3)])
        b = LiteralBounds.from_conjuncts([(">=", 5)])
        assert a == b


class TestNormalization:
    def test_reordered_where_shares_fingerprint(self, lazy_db):
        a = lazy_db.bind(
            "SELECT COUNT(*) AS n FROM dataview "
            "WHERE F.station = 'ISK' AND F.channel = 'BHE'"
        )
        b = lazy_db.bind(
            "SELECT COUNT(*) AS n FROM dataview "
            "WHERE F.channel = 'BHE' AND F.station = 'ISK'"
        )
        assert normalize_plan(a).fingerprint == normalize_plan(b).fingerprint

    def test_bounds_leave_the_template(self, lazy_db):
        start = EPOCH_2010_MS
        a = normalize_plan(lazy_db.bind(ROW_SQL.format(start, start + 10)))
        b = normalize_plan(
            lazy_db.bind(ROW_SQL.format(start + 5, start + 7))
        )
        assert a.fingerprint != b.fingerprint
        assert a.template == b.template
        assert a.bounds["D.sample_time"].covers(b.bounds["D.sample_time"])

    def test_aggregate_and_limit_block_refiltering(self, lazy_db):
        start = EPOCH_2010_MS
        assert not normalize_plan(
            lazy_db.bind(AGG_SQL.format(start, start + 10))
        ).refilterable
        assert not normalize_plan(
            lazy_db.bind(ROW_SQL.format(start, start + 10) + " LIMIT 5")
        ).refilterable
        assert normalize_plan(
            lazy_db.bind(ROW_SQL.format(start, start + 10))
        ).refilterable

    def test_output_columns_follow_projection_aliases(self, lazy_db):
        normalized = normalize_plan(
            lazy_db.bind(ROW_SQL.format(EPOCH_2010_MS, EPOCH_2010_MS + 10))
        )
        assert normalized.output_columns["D.sample_time"] == "t"
        assert normalized.output_columns["D.sample_value"] == "v"
        assert "F.station" not in normalized.output_columns


class TestExactRepeat:
    def test_repeat_skips_both_stages(self, cached_db, day_range):
        start, end = day_range
        first = cached_db.query(AGG_SQL.format(start, end))
        second = cached_db.query(AGG_SQL.format(start, end))
        assert first.result_cache is None
        assert second.result_cache == "exact"
        assert second.stats.results_from_cache == 1
        assert second.stats.chunks_loaded == 0
        assert second.stats.chunks_from_cache == 0
        assert second.table.to_dicts() == first.table.to_dicts()
        assert cached_db.stats.result_cache_hits == 1

    def test_iso_and_numeric_timestamps_interoperate(self, cached_db):
        start = EPOCH_2010_MS
        numeric = cached_db.query(ROW_SQL.format(start, start + HOUR_MS))
        iso = cached_db.query(
            "SELECT D.sample_time AS t, D.sample_value AS v FROM dataview "
            "WHERE F.station = 'ISK' "
            "AND D.sample_time >= '2010-01-01T00:00:00.000' "
            "AND D.sample_time < '2010-01-01T01:00:00.000'"
        )
        assert iso.result_cache in ("exact", "subsumed")
        assert iso.table.to_dicts() == numeric.table.to_dicts()

    def test_disabled_by_default(self, lazy_db, day_range):
        start, end = day_range
        assert lazy_db.result_cache is None
        lazy_db.query(AGG_SQL.format(start, end))
        repeat = lazy_db.query(AGG_SQL.format(start, end))
        assert repeat.result_cache is None
        assert repeat.stats.results_from_cache == 0
        assert "result_cache" not in lazy_db.planner_stats()


class TestSubsumption:
    def test_zoom_in_is_bit_identical_to_execution(
        self, cached_db, lazy_db, day_range
    ):
        start, end = day_range
        cached_db.query(ROW_SQL.format(start, end))
        for lo, hi in (
            (start + HOUR_MS, start + 3 * HOUR_MS),
            (start, start + HOUR_MS),
            (start + 23 * HOUR_MS, end),
        ):
            served = cached_db.query(ROW_SQL.format(lo, hi))
            direct = lazy_db.query(ROW_SQL.format(lo, hi))
            assert served.result_cache == "subsumed"
            assert served.stats.results_subsumed == 1
            assert served.stats.chunks_loaded == 0
            assert served.table.to_dicts() == direct.table.to_dicts()
        assert cached_db.stats.result_cache_subsumed == 3

    def test_unbounded_station_covers_bounded(self, cached_db, lazy_db):
        start = EPOCH_2010_MS
        broad = (
            "SELECT F.station AS station, D.sample_value AS v FROM dataview "
            f"WHERE D.sample_time >= {start} "
            f"AND D.sample_time < {start + HOUR_MS}"
        )
        cached_db.query(broad)
        narrow = broad + " AND F.station = 'ARCI'"
        served = cached_db.query(narrow)
        direct = lazy_db.query(narrow)
        assert served.result_cache == "subsumed"
        assert served.table.to_dicts() == direct.table.to_dicts()

    def test_narrower_cache_cannot_serve_wider_query(self, cached_db):
        start = EPOCH_2010_MS
        cached_db.query(ROW_SQL.format(start, start + HOUR_MS))
        wider = cached_db.query(ROW_SQL.format(start, start + 2 * HOUR_MS))
        assert wider.result_cache is None

    def test_different_station_equality_is_no_match(self, cached_db):
        start = EPOCH_2010_MS
        cached_db.query(ROW_SQL.format(start, start + HOUR_MS))
        other = cached_db.query(
            ROW_SQL.replace("'ISK'", "'ARCI'").format(start, start + HOUR_MS)
        )
        assert other.result_cache is None

    def test_aggregates_only_hit_exactly(self, cached_db, day_range):
        start, end = day_range
        cached_db.query(AGG_SQL.format(start, end))
        narrower = cached_db.query(AGG_SQL.format(start, start + HOUR_MS))
        assert narrower.result_cache is None

    def test_bound_column_missing_from_output_blocks_subsumption(
        self, cached_db
    ):
        start = EPOCH_2010_MS
        no_time_output = (
            "SELECT D.sample_value AS v FROM dataview "
            "WHERE F.station = 'ISK' "
            "AND D.sample_time >= {} AND D.sample_time < {}"
        )
        cached_db.query(no_time_output.format(start, start + 2 * HOUR_MS))
        narrower = cached_db.query(
            no_time_output.format(start, start + HOUR_MS)
        )
        assert narrower.result_cache is None

    def test_order_by_rides_along(self, cached_db, lazy_db):
        start = EPOCH_2010_MS
        sorted_sql = (
            ROW_SQL + " ORDER BY v"
        )
        cached_db.query(sorted_sql.format(start, start + 2 * HOUR_MS))
        served = cached_db.query(sorted_sql.format(start, start + HOUR_MS))
        direct = lazy_db.query(sorted_sql.format(start, start + HOUR_MS))
        assert served.result_cache == "subsumed"
        assert served.table.to_dicts() == direct.table.to_dicts()


class TestInvalidation:
    def test_register_repository_drops_everything(self, tiny_repo, day_range):
        start, end = day_range
        db, _ = prepare(
            "lazy", tiny_repo[0], options=TwoStageOptions(result_cache=True)
        )
        try:
            db.query(AGG_SQL.format(start, end))
            assert db.query(AGG_SQL.format(start, end)).result_cache == "exact"
            db.register_repository(tiny_repo[0])
            assert db.query(AGG_SQL.format(start, end)).result_cache is None
            assert cache_stats(db)["invalidations"] == 1
        finally:
            db.close()

    def test_count_over_d_follows_a_new_repository(
        self, tiny_repo, tiny_fiam_repo
    ):
        """The plan binds only D, but lazy D is "the chunks F names": a
        registration that writes just F and S must still outdate it."""
        sql = "SELECT COUNT(*) AS n FROM D"
        db, _ = prepare(
            "lazy", tiny_repo[0], options=TwoStageOptions(result_cache=True)
        )
        fresh, _ = prepare("lazy", tiny_repo[0])
        try:
            before = db.query(sql).table.to_dicts()
            assert db.query(sql).result_cache == "exact"
            db.register_repository(tiny_fiam_repo[0])
            fresh.register_repository(tiny_fiam_repo[0])
            after = db.query(sql)
            assert after.result_cache is None
            assert after.table.to_dicts() == fresh.query(sql).table.to_dicts()
            assert after.table.to_dicts() != before
        finally:
            db.close()
            fresh.close()

    def test_reset_derived_metadata_drops_h_entries_only(
        self, cached_db, day_range
    ):
        start, end = day_range
        params = QueryParams(
            station="ISK", channel="BHE", start_ms=start, end_ms=end,
            max_val_threshold=-1e12,
        )
        cached_db.query(t5_query(params))  # reads H (derived)
        cached_db.query(AGG_SQL.format(start, end))  # reads F/S/D only
        cached_db.reset_derived_metadata()
        repeat = cached_db.query(AGG_SQL.format(start, end))
        assert repeat.result_cache == "exact"
        assert cached_db.query(t5_query(params)).result_cache is None

    def test_new_window_materialization_invalidates_h_entries(
        self, cached_db, day_range
    ):
        start, end = day_range
        params = QueryParams(
            station="ISK", channel="BHE", start_ms=start, end_ms=end,
            max_val_threshold=-1e12,
        )
        first = cached_db.query(t5_query(params))
        assert first.result_cache is None
        # The identical query derives nothing new and hits.
        assert cached_db.query(t5_query(params)).result_cache == "exact"
        # A different window materializes new H rows -> H entries drop.
        other = QueryParams(
            station="ARCI", channel="BHZ", start_ms=start, end_ms=end,
            max_val_threshold=-1e12,
        )
        cached_db.query(t5_query(other))
        repeat = cached_db.query(t5_query(params))
        assert repeat.result_cache is None  # re-executed, re-admitted
        assert cached_db.query(t5_query(params)).result_cache == "exact"


class TestBudget:
    def test_eviction_by_benefit_density(self, tiny_repo, day_range):
        start, end = day_range
        db, _ = prepare(
            "lazy", tiny_repo[0], options=TwoStageOptions(result_cache=True)
        )
        db.result_cache.budget_bytes = 1
        try:
            # Nothing fits a 1-byte budget; the cache must stay empty and
            # queries must keep executing correctly.
            first = db.query(AGG_SQL.format(start, end))
            repeat = db.query(AGG_SQL.format(start, end))
            assert repeat.result_cache is None
            assert repeat.table.to_dicts() == first.table.to_dicts()
            assert cache_stats(db)["entries"] == 0
        finally:
            db.close()

    def test_budget_bounds_bytes_cached(self, cached_db, day_range):
        start, end = day_range
        cache = cached_db.result_cache
        first = cached_db.query(ROW_SQL.format(start, start + 2 * HOUR_MS))
        # Room for one result but not two: admitting the second (disjoint)
        # result must evict the first, never blow the budget.
        cache.budget_bytes = first.table.nbytes + 1
        cached_db.query(
            ROW_SQL.format(start + 2 * HOUR_MS, start + 4 * HOUR_MS)
        )
        snapshot = cache.stats_snapshot()
        assert snapshot["bytes_cached"] <= cache.budget_bytes
        assert snapshot["evictions"] == 1
        assert snapshot["entries"] == 1

    def test_unit_eviction_prefers_low_benefit(self):
        from repro.engine.column import Column
        from repro.engine.table import Schema, Table
        from repro.engine.types import INT64
        import numpy as np

        cache = ResultCache(budget_bytes=2048)

        def table(rows: int) -> Table:
            return Table(
                Schema.of(("v", INT64)),
                [Column(INT64, np.arange(rows, dtype=np.int64))],
            )

        class Fake:
            def __init__(self, tag):
                self.fingerprint = (tag,)
                self.template = (tag,)
                self.bounds = {}
                self.bound_conjuncts = ()
                self.refilterable = False
                self.output_columns = {}
                self.base_tables = frozenset({"D"})

        cheap, dear = Fake("cheap"), Fake("dear")
        assert cache.admit(cheap, table(128), compute_seconds=0.001)
        assert cache.admit(dear, table(64), compute_seconds=10.0)
        # A third entry forces an eviction: the low-benefit one goes.
        assert cache.admit(Fake("new"), table(128), compute_seconds=1.0)
        assert cache.serve(dear) is not None
        assert cache.serve(cheap) is None
        assert cache.stats.evictions >= 1


def append_one_segment(db) -> None:
    """A write to S, as a concurrent registration would make."""
    segments = db.database.catalog.table("S")
    segments.append(segments.data.slice(0, 1))


class TestVersions:
    def test_stale_admit_is_refused(self, lazy_db):
        """A result computed before a write carries the pre-write versions:
        it is refused at admission, and an entry a later write outdates is
        dropped at its next lookup."""
        catalog = lazy_db.database.catalog
        cache = ResultCache(versions=catalog.versions)
        sql = "SELECT COUNT(*) AS n FROM gmdview"
        normalized = normalize_plan(lazy_db.bind(sql))
        versions = catalog.versions(normalized.base_tables)
        table = lazy_db.query(sql).table
        append_one_segment(lazy_db)  # lands while the query is "executing"
        assert not cache.admit(normalized, table, 0.1, versions)
        assert len(cache) == 0
        versions = catalog.versions(normalized.base_tables)
        assert cache.admit(normalized, table, 0.1, versions)
        assert cache.serve(normalized, versions) is not None
        append_one_segment(lazy_db)
        now = catalog.versions(normalized.base_tables)
        assert cache.serve(normalized, now) is None
        assert len(cache) == 0
        assert cache.stats.invalidations == 1

    def test_write_during_execution_is_never_served(
        self, cached_db, day_range, monkeypatch
    ):
        sql = AGG_SQL.format(*day_range)
        execute = cached_db.compiler.execute_compiled

        def overtaken(compiled, cancel=None):
            result = execute(compiled, cancel=cancel)
            append_one_segment(cached_db)
            return result

        monkeypatch.setattr(cached_db.compiler, "execute_compiled", overtaken)
        cached_db.query(sql)
        monkeypatch.undo()
        repeat = cached_db.query(sql)
        assert repeat.result_cache is None  # the overtaken result was not kept
        assert cached_db.query(sql).result_cache == "exact"


class TestSessions:
    def test_session_stats_carry_result_cache_hits(self, cached_db, day_range):
        start, end = day_range
        cached_db.query(AGG_SQL.format(start, end))
        cached_db.query(AGG_SQL.format(start, end))
        # The facade's counters carry the hit the query's ExecStats saw.
        assert cached_db.stats.result_cache_hits == 1
        assert cached_db.stats.queries_executed == 2
