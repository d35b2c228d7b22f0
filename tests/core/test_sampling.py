"""Tests for approximate query answering via chunk sampling (§VIII)."""


import pytest

from repro.core.sampling import ChunkSampler
from repro.engine.errors import ExecutionError, PlanError
from repro.workloads import QueryParams, t4_query, t5_query

MILLIS_PER_DAY = 24 * 3600 * 1000


@pytest.fixture()
def t4_sql(two_day_range):
    start, end = two_day_range
    return t4_query(
        QueryParams(station="ISK", channel="BHE", start_ms=start, end_ms=end)
    )


class TestChunkSampler:
    def test_full_fraction_is_exact(self, lazy_db, t4_sql):
        exact = lazy_db.query(t4_sql).table.to_dicts()[0]
        approx = lazy_db.approximate_query(t4_sql, fraction=1.0)
        assert approx.exact
        assert approx.estimate_by_name("avg_value").estimate == pytest.approx(
            exact["avg_value"]
        )
        assert approx.estimate_by_name("n_samples").estimate == pytest.approx(
            exact["n_samples"]
        )

    def test_full_fraction_is_exact_on_eager(self, eager_db, t4_sql):
        """Stage one still names the chunks when D already holds the data."""
        exact = eager_db.query(t4_sql).table.to_dicts()[0]
        approx = eager_db.approximate_query(t4_sql, fraction=1.0)
        assert approx.exact and approx.chunks_total > 0
        assert approx.estimate_by_name("avg_value").estimate == pytest.approx(
            exact["avg_value"]
        )
        assert approx.estimate_by_name("n_samples").estimate == pytest.approx(
            exact["n_samples"]
        )

    def test_partial_sample_loads_fewer_chunks(self, lazy_db, t4_sql):
        approx = lazy_db.approximate_query(t4_sql, fraction=0.5)
        assert approx.chunks_sampled < approx.chunks_total or (
            approx.chunks_total <= 2  # min_chunks floor
        )
        assert approx.chunks_sampled >= 1

    def test_avg_estimate_reasonable(self, lazy_db, t4_sql):
        exact = lazy_db.query(t4_sql).table.to_dicts()[0]["avg_value"]
        approx = lazy_db.approximate_query(t4_sql, fraction=0.5)
        estimate = approx.estimate_by_name("avg_value").estimate
        # Chunk means of the synthetic signal are near zero with noise;
        # assert the estimate is in a loose absolute band around exact.
        assert abs(estimate - exact) < 500

    def test_count_scales_with_inverse_fraction(self, lazy_db, t4_sql):
        exact = lazy_db.query(t4_sql).table.to_dicts()[0]["n_samples"]
        approx = lazy_db.approximate_query(t4_sql, fraction=0.5)
        estimate = approx.estimate_by_name("n_samples").estimate
        assert 0.4 * exact < estimate < 2.5 * exact

    def test_min_max_flagged_as_bounds(self, lazy_db, two_day_range):
        start, end = two_day_range
        sql = f"""
            SELECT MAX(D.sample_value) AS peak FROM dataview
            WHERE F.station = 'ISK' AND F.channel = 'BHE'
              AND D.sample_time >= '{QueryParams(start_ms=start).start_iso}'
              AND D.sample_time < '{QueryParams(start_ms=end).start_iso}'
        """
        approx = lazy_db.approximate_query(sql, fraction=1.0)
        assert approx.estimate_by_name("peak").is_bound

    def test_group_by_rejected(self, lazy_db, two_day_range):
        start, end = two_day_range
        sql = """
            SELECT F.station, COUNT(*) AS n FROM dataview GROUP BY F.station
        """
        with pytest.raises(PlanError):
            lazy_db.approximate_query(sql)

    def test_non_aggregate_rejected(self, lazy_db):
        with pytest.raises(PlanError):
            lazy_db.approximate_query("SELECT F.station FROM F")

    def test_invalid_fraction(self, lazy_db):
        with pytest.raises(ValueError):
            ChunkSampler(
                lazy_db.database, lazy_db.config, lazy_db.compiler,
                fraction=0.0,
            )

    def test_deterministic_given_seed(self, lazy_db, t4_sql):
        a = lazy_db.approximate_query(t4_sql, fraction=0.5, seed=1)
        b = lazy_db.approximate_query(t4_sql, fraction=0.5, seed=1)
        assert (
            a.estimate_by_name("avg_value").estimate
            == b.estimate_by_name("avg_value").estimate
        )

    def test_no_matching_chunks(self, lazy_db):
        sql = """
            SELECT COUNT(D.sample_value) AS n FROM dataview
            WHERE F.station = 'NOPE' AND F.channel = 'X'
        """
        approx = lazy_db.approximate_query(sql)
        assert approx.chunks_total == 0
        assert approx.estimate_by_name("n").estimate == 0

    def test_stderr_present_with_multiple_chunks(self, lazy_db, t4_sql):
        approx = lazy_db.approximate_query(t4_sql, fraction=1.0)
        if approx.chunks_sampled > 1:
            assert approx.estimate_by_name("avg_value").standard_error is not None


class TestFacadeEntryPoint:
    def test_derivation_runs_under_the_derivation_lock(
        self, lazy_db, day_range, monkeypatch
    ):
        """Both entry points run Algorithm 1 serialized, so concurrent
        derivations cannot double-insert H windows."""
        start, end = day_range
        sql = t5_query(
            QueryParams(
                station="ISK", channel="BHE", start_ms=start, end_ms=end,
                max_val_threshold=-1e12,
            )
        )
        held: list[bool] = []
        ensure = lazy_db.views.ensure_for_query

        def recording(plan):
            held.append(lazy_db._derivation_lock.locked())
            return ensure(plan)

        monkeypatch.setattr(lazy_db.views, "ensure_for_query", recording)
        lazy_db.query(sql)
        lazy_db.approximate_query(sql, fraction=1.0)
        assert held == [True, True]

    def test_closed_database_refuses(self, lazy_db, t4_sql):
        lazy_db.close()
        with pytest.raises(ExecutionError, match="closed"):
            lazy_db.approximate_query(t4_sql)
