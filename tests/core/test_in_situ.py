"""Tests for the in-situ (NoDB-style) chunk-access strategy (§VII)."""

import pytest

from repro.core.two_stage import TwoStageOptions
from repro.workloads import QueryParams, t4_query

MILLIS_PER_DAY = 24 * 3600 * 1000
HOUR_MS = 3600 * 1000


@pytest.fixture()
def narrow_sql(day_range):
    start, _ = day_range
    return t4_query(
        QueryParams(
            station="ISK",
            channel="BHE",
            start_ms=start + 2 * HOUR_MS,
            end_ms=start + 4 * HOUR_MS,
        )
    )


class TestInSituStrategy:
    def test_same_answer_as_full_load(self, tiny_repo, narrow_sql):
        from repro.core.loading import prepare

        full_db, _ = prepare("lazy", tiny_repo[0])
        insitu_db, _ = prepare("lazy", tiny_repo[0])
        insitu_db.database.chunk_access_strategy = "in_situ"
        assert (
            insitu_db.query(narrow_sql).table.to_dicts()
            == full_db.query(narrow_sql).table.to_dicts()
        )
        full_db.close()
        insitu_db.close()

    def test_fewer_rows_ingested(self, tiny_repo, narrow_sql):
        from repro.core.loading import prepare

        full_db, _ = prepare("lazy", tiny_repo[0])
        # Pooled: window decodes run on the shared I/O pool.
        insitu_db, _ = prepare(
            "lazy", tiny_repo[0], options=TwoStageOptions(io_threads=4)
        )
        insitu_db.database.chunk_access_strategy = "in_situ"
        full = full_db.query(narrow_sql)
        partial = insitu_db.query(narrow_sql)
        assert partial.stats.chunk_rows_loaded < full.stats.chunk_rows_loaded
        full_db.close()
        insitu_db.close()

    def test_partial_loads_not_cached(self, tiny_repo, narrow_sql):
        from repro.core.loading import prepare

        insitu_db, _ = prepare(
            "lazy", tiny_repo[0], options=TwoStageOptions(io_threads=4)
        )
        insitu_db.database.chunk_access_strategy = "in_situ"
        result = insitu_db.query(narrow_sql)
        assert result.stats.chunks_loaded == 1
        # The recycler must not contain partial chunks (they would poison
        # later queries with different predicates), and their window ranges
        # must not pass for the whole chunk's statistics.
        assert len(insitu_db.database.recycler) == 0
        for uri in result.rewrite.required_uris:
            stats = insitu_db.database.chunk_stats.get(uri)
            assert stats is None or not stats.enriched
        insitu_db.close()

    def test_second_query_wider_range_correct(self, tiny_repo, day_range):
        from repro.core.loading import prepare

        start, end = day_range
        narrow = t4_query(
            QueryParams("ISK", "BHE", start + 2 * HOUR_MS, start + 3 * HOUR_MS)
        )
        wide = t4_query(QueryParams("ISK", "BHE", start, end))
        insitu_db, _ = prepare("lazy", tiny_repo[0])
        insitu_db.database.chunk_access_strategy = "in_situ"
        reference_db, _ = prepare("lazy", tiny_repo[0])
        insitu_db.query(narrow)
        assert (
            insitu_db.query(wide).table.to_dicts()
            == reference_db.query(wide).table.to_dicts()
        )
        insitu_db.close()
        reference_db.close()

    def test_falls_back_without_time_predicate(self, tiny_repo):
        from repro.core.loading import prepare

        sql = """
            SELECT COUNT(D.sample_value) AS n FROM dataview
            WHERE F.station = 'ISK' AND F.channel = 'BHE'
        """
        insitu_db, _ = prepare("lazy", tiny_repo[0])
        insitu_db.database.chunk_access_strategy = "in_situ"
        reference_db, _ = prepare("lazy", tiny_repo[0])
        assert (
            insitu_db.query(sql).table.to_dicts()
            == reference_db.query(sql).table.to_dicts()
        )
        insitu_db.close()
        reference_db.close()
