"""Tests for Algorithm 1: incremental metadata derivation."""

import pytest

from repro.core.loading import prepare
from repro.core.partial_views import _coalesce_runs
from repro.core.schema import HOUR_MS
from repro.data.ingv import EPOCH_2010_MS
from repro.workloads import QueryParams, t2_query, t3_query, t5_query

MILLIS_PER_DAY = 24 * 3600 * 1000


def params(start, hours, station="FIAM", channel="HHZ", **kwargs):
    return QueryParams(
        station=station,
        channel=channel,
        start_ms=start,
        end_ms=start + hours * HOUR_MS,
        **kwargs,
    )


class TestAlgorithmSteps:
    def test_skip_for_non_dmd_query(self, lazy_db, day_range):
        from repro.workloads import t4_query

        start, end = day_range
        sql = t4_query(QueryParams("ISK", "BHE", start, end))
        _, report = lazy_db.query_with_derivation(sql)
        assert not report.applicable

    def test_psq_enumeration_one_station(self, lazy_db):
        sql = t2_query(params(EPOCH_2010_MS, 6))
        _, report = lazy_db.query_with_derivation(sql)
        assert report.applicable
        assert report.psq_size == 6  # one (station, channel) pair x 6 hours

    def test_covering_avoids_recompute(self, lazy_db):
        sql = t2_query(params(EPOCH_2010_MS, 6))
        _, first = lazy_db.query_with_derivation(sql)
        assert first.psu_size == 6
        _, second = lazy_db.query_with_derivation(sql)
        assert second.psu_size == 0
        assert second.windows_inserted == 0

    def test_partial_overlap_computes_only_gap(self, lazy_db):
        lazy_db.query(t2_query(params(EPOCH_2010_MS, 6)))
        _, report = lazy_db.query_with_derivation(
            t2_query(params(EPOCH_2010_MS + 3 * HOUR_MS, 6))
        )
        # hours 3..9: hours 3..6 covered, 6..9 are new
        assert report.psu_size == 3

    def test_range_clipped_to_data_span(self, lazy_db):
        # Ask far beyond the 2-day dataset: PSq must clip to the ~48 hours
        # of actual data (segment gaps can spill one extra window).
        sql = t2_query(params(EPOCH_2010_MS, 24 * 365))
        _, report = lazy_db.query_with_derivation(sql)
        assert report.psq_size <= 50

    def test_key_space_starts_at_first_returnable_window(self, lazy_db):
        # H is keyed by window start: ``> 03:00`` can return 04:00 and
        # 05:00 only, so the 03:00 window must not be derived.
        sql = (
            "SELECT H.window_start_ts FROM H WHERE H.window_station = 'ISK' "
            f"AND H.window_start_ts > {EPOCH_2010_MS + 3 * HOUR_MS} "
            f"AND H.window_start_ts < {EPOCH_2010_MS + 6 * HOUR_MS}"
        )
        result, report = lazy_db.query_with_derivation(sql)
        assert report.psq_size == 2
        assert report.windows_inserted == 2
        assert result.table.column("H.window_start_ts").to_list() == [
            EPOCH_2010_MS + 4 * HOUR_MS,
            EPOCH_2010_MS + 5 * HOUR_MS,
        ]

    def test_unconstrained_station_enumerates_all_pairs(self, lazy_db):
        sql = f"""
            SELECT H.window_max_val FROM H
            WHERE H.window_start_ts >= '2010-01-01T00:00:00.000'
              AND H.window_start_ts < '2010-01-01T02:00:00.000'
        """
        _, report = lazy_db.query_with_derivation(sql)
        assert report.psq_size == 4 * 2  # 4 station/channel pairs x 2 hours

    def test_transitive_station_constraint_through_join(self, lazy_db):
        # T3 constrains F.station; H.window_station = F.station must narrow
        # the key space to one station.
        sql = t3_query(params(EPOCH_2010_MS, 4))
        _, report = lazy_db.query_with_derivation(sql)
        assert report.psq_size == 4

    def test_derivation_values_match_eager(self, lazy_db, eager_dmd_db):
        sql = t2_query(params(EPOCH_2010_MS, 12))
        lazy_rows = lazy_db.query(sql).table.to_dicts()
        eager_rows = eager_dmd_db.query(sql).table.to_dicts()
        assert len(lazy_rows) == len(eager_rows)
        for lazy_row, eager_row in zip(lazy_rows, eager_rows):
            assert lazy_row["window_start_ts"] == eager_row["window_start_ts"]
            assert lazy_row["max_val"] == pytest.approx(eager_row["max_val"])
            assert lazy_row["std_dev"] == pytest.approx(eager_row["std_dev"])

    def test_lazy_derivation_loads_chunks(self, lazy_db):
        _, report = lazy_db.query_with_derivation(
            t2_query(params(EPOCH_2010_MS, 3))
        )
        assert report.chunks_loaded >= 1

    def test_t5_uses_windows_for_chunk_filtering(self, lazy_db, two_day_range):
        start, end = two_day_range
        sql = t5_query(
            QueryParams(
                station="FIAM",
                channel="HHZ",
                start_ms=start,
                end_ms=end,
                max_val_threshold=0.0,
                std_dev_threshold=0.0,
            )
        )
        result = lazy_db.query(sql)
        assert result.table.to_dicts()[0]["n_samples"] > 0

    def test_empty_windows_remembered(self, lazy_db):
        # A station with no data in the asked range: derivation inserts
        # nothing but the keys count as materialized.
        sql = t2_query(params(EPOCH_2010_MS, 2, station="ISK", channel="BHE"))
        _, first = lazy_db.query_with_derivation(sql)
        _, second = lazy_db.query_with_derivation(sql)
        assert second.psu_size == 0

    def test_manager_sync_from_existing_table(self, eager_dmd_db):
        # eager_dmd materialized everything; a fresh query must not derive.
        _, report = eager_dmd_db.query_with_derivation(
            t2_query(params(EPOCH_2010_MS, 6))
        )
        assert report.psu_size == 0


class TestDeriveAll:
    def test_derive_all_covers_everything(self, lazy_db):
        report = lazy_db.views.derive_all()
        assert report.psq_size > 0
        assert report.psu_size == report.psq_size
        follow_up = lazy_db.views.derive_all()
        assert follow_up.psu_size == 0

    def test_h_rows_keyed_uniquely(self, lazy_db):
        lazy_db.views.derive_all()
        h_data = lazy_db.database.catalog.table("H").data
        keys = set(
            zip(
                h_data.column("window_station").to_list(),
                h_data.column("window_channel").to_list(),
                h_data.column("window_start_ts").to_list(),
            )
        )
        assert len(keys) == h_data.num_rows


class TestCoalesceRuns:
    def test_contiguous_merge(self):
        keys = [("S", "C", 0), ("S", "C", HOUR_MS), ("S", "C", 2 * HOUR_MS)]
        assert _coalesce_runs(keys) == [("S", "C", 0, 3 * HOUR_MS)]

    def test_gap_splits_runs(self):
        keys = [("S", "C", 0), ("S", "C", 5 * HOUR_MS)]
        runs = _coalesce_runs(keys)
        assert runs == [
            ("S", "C", 0, HOUR_MS),
            ("S", "C", 5 * HOUR_MS, 6 * HOUR_MS),
        ]

    def test_pairs_separated(self):
        keys = [("A", "C", 0), ("B", "C", 0)]
        assert len(_coalesce_runs(keys)) == 2

    def test_unsorted_input(self):
        keys = [("S", "C", 2 * HOUR_MS), ("S", "C", 0), ("S", "C", HOUR_MS)]
        assert _coalesce_runs(keys) == [("S", "C", 0, 3 * HOUR_MS)]


# -- Algorithm 1's key space against the eagerly derived H --------------------

T0 = EPOCH_2010_MS
SELECT_H = (
    "SELECT H.window_station, H.window_start_ts, H.window_max_val FROM H "
    "WHERE {}"
)
ISK = "H.window_station = 'ISK'"
WITHIN = f"H.window_start_ts >= {T0} AND H.window_start_ts < {T0 + 6 * HOUR_MS}"


def _edge_cases():
    for hour in (2, 3):
        edge = T0 + hour * HOUR_MS
        for offset, literal in (
            ("", f"{edge}"),
            (".5", f"{edge}.5"),
            ("-0.5", f"{edge - 1}.5"),
        ):
            for op in ("<", "<=", ">", ">=", "="):
                where = f"{ISK} AND H.window_start_ts {op} {literal} AND {WITHIN}"
                yield pytest.param(where, id=f"{op}{hour:02d}h{offset}")


EDGE = T0 + 3 * HOUR_MS
SHAPES = {
    "literal-left": f"{ISK} AND {EDGE}.5 > H.window_start_ts AND {WITHIN}",
    "in-list": f"H.window_station IN ('ISK') AND H.window_start_ts < {EDGE}.5 "
    f"AND {WITHIN}",
    "or-stations": f"(H.window_station = 'ISK' OR H.window_station = 'FIAM') "
    f"AND H.window_start_ts < {EDGE}.5 AND {WITHIN}",
    "not": f"{ISK} AND NOT (H.window_start_ts >= {EDGE}.5) AND {WITHIN}",
    "between": f"{ISK} AND H.window_start_ts BETWEEN {T0 + HOUR_MS}.5 "
    f"AND {EDGE}.5",
    "arithmetic": f"{ISK} AND H.window_start_ts + 0 < {EDGE}.5 AND {WITHIN}",
}


@pytest.fixture(scope="module")
def lazy_and_eager(tiny_repo):
    lazy, _ = prepare("lazy", tiny_repo[0])
    eager, _ = prepare("eager_dmd", tiny_repo[0])
    yield lazy, eager
    lazy.close()
    eager.close()


def _rows(db, sql):
    return sorted(tuple(row.values()) for row in db.query(sql).table.to_dicts())


class TestKeySpaceMatchesEager:
    """Lazy H answers equal eager_dmd's for every bound shape Algorithm 1
    reads; each query starts from an empty H, so no earlier query can
    supply a window the key space missed."""

    @pytest.mark.parametrize(
        "where",
        [
            *_edge_cases(),
            *(pytest.param(where, id=name) for name, where in SHAPES.items()),
        ],
    )
    def test_lazy_equals_eager_dmd(self, lazy_and_eager, where):
        lazy, eager = lazy_and_eager
        lazy.reset_derived_metadata()
        sql = SELECT_H.format(where)
        assert _rows(lazy, sql) == _rows(eager, sql)
