"""Tests for the SommelierDB facade and the Table-I query taxonomy."""

import pytest

from repro.core.query_types import QueryType, classify_plan
from repro.workloads import (
    QueryParams,
    t1_query,
    t2_query,
    t3_query,
    t4_query,
    t5_query,
)

HOUR_MS = 3600 * 1000


@pytest.fixture()
def params(two_day_range):
    start, end = two_day_range
    return QueryParams(
        station="FIAM",
        channel="HHZ",
        start_ms=start,
        end_ms=end,
        max_val_threshold=0.0,
        std_dev_threshold=0.0,
    )


class TestQueryTypes:
    @pytest.mark.parametrize(
        "builder,expected",
        [
            (t1_query, QueryType.T1),
            (t2_query, QueryType.T2),
            (t3_query, QueryType.T3),
            (t4_query, QueryType.T4),
            (t5_query, QueryType.T5),
        ],
    )
    def test_templates_classified(self, lazy_db, params, builder, expected):
        assert lazy_db.query_type(builder(params)) is expected

    def test_refers_flags(self):
        assert QueryType.T5.refers_to_derived
        assert QueryType.T5.refers_to_actual
        assert not QueryType.T1.refers_to_actual
        assert not QueryType.T4.refers_to_derived

    def test_ad_only_classification(self, lazy_db):
        plan = lazy_db.bind("SELECT COUNT(*) FROM D")
        assert classify_plan(plan, lazy_db.database.catalog) is QueryType.AD_ONLY


class TestSommelierFacade:
    def test_explain_lazy(self, lazy_db, params):
        text = lazy_db.explain(t4_query(params))
        assert "T4" in text
        assert "MAL program" in text
        assert "runtime-optimizer" in text

    def test_explain_eager(self, eager_db, params):
        text = eager_db.explain(t4_query(params))
        assert "MAL program" in text
        assert "runtime-optimizer" in text

    def test_stats_accumulate(self, lazy_db, params):
        lazy_db.query(t4_query(params))
        lazy_db.query(t5_query(params))
        assert lazy_db.stats.queries_executed == 2
        assert lazy_db.stats.derivations == 1
        assert lazy_db.stats.chunks_loaded_total >= 2

    def test_drop_caches_forces_reload(self, lazy_db, params):
        lazy_db.query(t4_query(params))
        lazy_db.drop_caches()
        result = lazy_db.query(t4_query(params))
        assert result.stats.chunks_loaded > 0

    def test_context_manager(self, tiny_repo):
        from repro import SommelierDB

        with SommelierDB.create() as db:
            db.register_repository(tiny_repo[0], threads=1)
            assert db.database.catalog.table("F").num_rows > 0

    def test_query_seconds_include_derivation(self, lazy_db, params):
        result, derivation = lazy_db.query_with_derivation(t5_query(params))
        assert result.seconds >= derivation.seconds

    def test_ad_only_query_falls_back_to_all_chunks(self, lazy_db):
        result = lazy_db.query("SELECT COUNT(*) AS n FROM D")
        total = lazy_db.database.catalog.table("F").num_rows
        assert len(result.rewrite.required_uris) == total
        assert result.table.to_dicts()[0]["n"] > 0
