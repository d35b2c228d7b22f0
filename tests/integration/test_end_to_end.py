"""Integration tests: the full pipeline across loading approaches.

The central invariant: every loading approach answers every query type
identically — lazy loading is an optimization, not a semantics change.
"""

import pytest

from repro.core.loading import prepare
from repro.core.two_stage import TwoStageOptions
from repro.data.ingv import EPOCH_2010_MS
from repro.workloads import (
    QUERY1,
    QUERY2,
    QueryParams,
    t1_query,
    t2_query,
    t3_query,
    t4_query,
    t5_query,
)

MILLIS_PER_DAY = 24 * 3600 * 1000
APPROACH_NAMES = ("lazy", "eager_plain", "eager_csv", "eager_index", "eager_dmd")


def count_star_query(params):
    """COUNT(*) over the metadata⋈data join: no column is read above it."""
    return f"""
        SELECT COUNT(*) AS n FROM dataview
        WHERE F.station = '{params.station}'
          AND D.sample_time >= '{params.start_iso}'
          AND D.sample_time < '{params.end_iso}'
    """


def distinct_query(params):
    return f"""
        SELECT DISTINCT S.segment_no AS seg FROM dataview
        WHERE F.station = '{params.station}' AND D.sample_value > 0
        ORDER BY seg
    """


def order_limit_query(params):
    return f"""
        SELECT D.sample_time AS t, D.sample_value AS v FROM dataview
        WHERE F.station = '{params.station}'
          AND F.channel = '{params.channel}'
        ORDER BY v DESC, t LIMIT 15
    """


def residual_join_query(params):
    """A D⋈S join whose condition keeps a non-equi residual conjunct."""
    return f"""
        SELECT COUNT(*) AS n, SUM(D.sample_value) AS total FROM dataview
        WHERE F.station = '{params.station}'
          AND D.sample_value > S.segment_no * 100
    """


@pytest.fixture(scope="module")
def prepared_all(tiny_repo):
    databases = {}
    for name in APPROACH_NAMES:
        databases[name], _ = prepare(name, tiny_repo[0])
    yield databases
    for db in databases.values():
        db.close()


@pytest.fixture()
def all_params():
    return QueryParams(
        station="FIAM",
        channel="HHZ",
        start_ms=EPOCH_2010_MS,
        end_ms=EPOCH_2010_MS + 2 * MILLIS_PER_DAY,
        max_val_threshold=100.0,
        std_dev_threshold=1.0,
    )


class TestApproachEquivalence:
    @pytest.mark.parametrize(
        "builder",
        [
            t1_query,
            t2_query,
            t3_query,
            t4_query,
            t5_query,
            count_star_query,
            distinct_query,
            order_limit_query,
            residual_join_query,
        ],
    )
    def test_same_answer_everywhere(self, prepared_all, all_params, builder):
        sql = builder(all_params)
        answers = {
            name: db.query(sql).table.to_dicts()
            for name, db in prepared_all.items()
        }
        reference = answers["eager_plain"]
        for name, answer in answers.items():
            assert _rows_close(answer, reference, _tolerance(name)), (
                f"{name} disagrees with eager_plain on {builder.__name__}"
            )

    def test_paper_query1(self, prepared_all):
        answers = {
            name: db.query(QUERY1).table.to_dicts()
            for name, db in prepared_all.items()
        }
        reference = answers["eager_plain"]
        for name, answer in answers.items():
            assert _rows_close(answer, reference, _tolerance(name)), name

    def test_paper_query2(self, prepared_all):
        answers = {
            name: sorted(
                map(str, db.query(QUERY2).table.to_dicts())
            )
            for name, db in prepared_all.items()
        }
        reference = answers["eager_plain"]
        for answer in answers.values():
            assert answer == reference


def _tolerance(approach):
    """eager_index runs the same plans as eager_plain over the same paged
    D (its indexes are measured, never read), so it must agree exactly."""
    return 0.0 if approach == "eager_index" else 1e-9


def _rows_close(a, b, rel=1e-9):
    """Row-by-row equality, floats within ``rel`` (NaN equals NaN)."""
    if len(a) != len(b):
        return False
    for row_a, row_b in zip(a, b):
        if set(row_a) != set(row_b):
            return False
        for key in row_a:
            va, vb = row_a[key], row_b[key]
            if isinstance(va, float) and isinstance(vb, float):
                import math

                if math.isnan(va) and math.isnan(vb):
                    continue
                if abs(va - vb) > rel * max(1.0, abs(va), abs(vb)):
                    return False
            elif va != vb:
                return False
    return True


class TestColdHotProtocol:
    def test_hot_run_avoids_chunk_loads(self, tiny_repo, all_params):
        db, _ = prepare("lazy", tiny_repo[0])
        sql = t4_query(all_params)
        cold = db.query(sql)
        hot = db.query(sql)
        assert cold.stats.chunks_loaded > 0
        assert hot.stats.chunks_loaded == 0
        db.close()

    def test_cold_restart_reloads(self, tiny_repo, all_params):
        db, _ = prepare("lazy", tiny_repo[0])
        sql = t4_query(all_params)
        db.query(sql)
        db.drop_caches()
        again = db.query(sql)
        assert again.stats.chunks_loaded > 0
        db.close()

    def test_eager_hot_faster_via_buffer_pool(self, tiny_repo, all_params):
        db, _ = prepare("eager_plain", tiny_repo[0])
        sql = t4_query(all_params)
        db.drop_caches()
        db.query(sql)
        pool = db.database.buffer_pool
        cold_misses = pool.stats.misses
        db.query(sql)
        hot_misses = pool.stats.misses - cold_misses
        assert hot_misses < cold_misses
        db.close()


class TestRecyclerBudgetPressure:
    def test_tiny_recycler_evicts_and_still_correct(self, tiny_repo, all_params):
        db, _ = prepare("lazy", tiny_repo[0], recycler_bytes=16 * 1024)
        reference_db, _ = prepare("lazy", tiny_repo[0])
        sql = t4_query(all_params)
        constrained = db.query(sql).table.to_dicts()
        reference = reference_db.query(sql).table.to_dicts()
        assert _rows_close(constrained, reference)
        db.close()
        reference_db.close()


class TestRuleAblationBehaviour:
    def test_disabling_r2_can_load_more_chunks(self, tiny_repo, all_params):
        """The paper's minimality claim: without R2, metadata that only
        connects through a cross product cannot pre-filter chunks."""
        from repro.core.coloring import RuleSet

        sql = t5_query(all_params)
        db_full, _ = prepare("lazy", tiny_repo[0])
        db_ablated, _ = prepare(
            "lazy",
            tiny_repo[0],
            options=TwoStageOptions(rules=RuleSet.disabled("r2")),
        )
        full = db_full.query(sql)
        ablated = db_ablated.query(sql)
        assert _rows_close(ablated.table.to_dicts(), full.table.to_dicts())
        assert len(ablated.rewrite.required_uris) >= len(
            full.rewrite.required_uris
        )
        db_full.close()
        db_ablated.close()
