"""Property-based equivalence: lazy (chunks) vs eager (data in D).

For randomly generated (station, time range, aggregate) queries, the lazy
database must return exactly what the eager database returns — the paper's
implicit correctness contract ("the illusion of a fully populated
database") — and the eager one must load no chunk to do it.  Every query
also runs a second time, answered from the compiled-plan cache, and must
return the same rows bit for bit.
"""

import math
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.coloring import RuleSet
from repro.core.loading import prepare
from repro.data.ingv import EPOCH_2010_MS

HOUR_MS = 3600 * 1000
STATIONS = [("ISK", "BHE"), ("FIAM", "HHZ"), ("ARCI", "BHZ"), ("LATE", "BHN")]
AGGREGATES = ["COUNT(D.sample_value)", "SUM(D.sample_value)",
              "MIN(D.sample_value)", "MAX(D.sample_value)",
              "AVG(D.sample_value)"]


def plan_cache_hits(db) -> int:
    return db.plan_cache.stats_snapshot()["hits"]


def query_twice(db, sql: str) -> list:
    """``sql``'s rows; the repeat is a plan-cache hit with the same rows."""
    hits = plan_cache_hits(db)
    rows = db.query(sql).table.to_dicts()
    repeat = db.query(sql).table.to_dicts()
    assert plan_cache_hits(db) > hits
    # repr: NaN aggregates compare equal only by their rendering.
    assert repr(repeat) == repr(rows)
    return rows


@pytest.fixture(scope="module")
def db_pair(tiny_repo):
    lazy, _ = prepare("lazy", tiny_repo[0])
    eager, _ = prepare("eager_index", tiny_repo[0])
    yield lazy, eager
    lazy.close()
    eager.close()


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    station_index=st.integers(0, len(STATIONS) - 1),
    start_hour=st.integers(0, 47),
    duration_hours=st.integers(1, 24),
    aggregate=st.sampled_from(AGGREGATES),
)
def test_lazy_equals_eager_on_random_t4(
    db_pair, station_index, start_hour, duration_hours, aggregate
):
    lazy, eager = db_pair
    station, channel = STATIONS[station_index]
    start = EPOCH_2010_MS + start_hour * HOUR_MS
    end = start + duration_hours * HOUR_MS
    from repro.engine.types import format_timestamp

    sql = f"""
        SELECT {aggregate} AS agg FROM dataview
        WHERE F.station = '{station}' AND F.channel = '{channel}'
          AND D.sample_time >= '{format_timestamp(start)}'
          AND D.sample_time < '{format_timestamp(end)}'
    """
    lazy_value = query_twice(lazy, sql)[0]["agg"]
    eager_value = query_twice(eager, sql)[0]["agg"]
    # The eager side answers from D: no query or derivation loads a chunk.
    assert eager.stats.chunks_loaded_total == 0
    if isinstance(lazy_value, float) and math.isnan(lazy_value):
        assert isinstance(eager_value, float) and math.isnan(eager_value)
    else:
        assert lazy_value == pytest.approx(eager_value)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    start_hour=st.integers(0, 40),
    duration_hours=st.integers(1, 8),
)
def test_lazy_equals_eager_on_random_t2(db_pair, start_hour, duration_hours):
    lazy, eager = db_pair
    from repro.engine.types import format_timestamp

    start = EPOCH_2010_MS + start_hour * HOUR_MS
    end = start + duration_hours * HOUR_MS
    sql = f"""
        SELECT H.window_start_ts AS window_start_ts,
               H.window_max_val AS window_max_val,
               H.window_mean_val AS window_mean_val
        FROM H
        WHERE H.window_station = 'FIAM'
          AND H.window_start_ts >= '{format_timestamp(start)}'
          AND H.window_start_ts < '{format_timestamp(end)}'
        ORDER BY window_start_ts
    """
    lazy_rows = query_twice(lazy, sql)
    eager_rows = query_twice(eager, sql)
    assert eager.stats.chunks_loaded_total == 0
    assert len(lazy_rows) == len(eager_rows)
    for a, b in zip(lazy_rows, eager_rows):
        assert a["window_start_ts"] == b["window_start_ts"]
        assert a["window_max_val"] == pytest.approx(b["window_max_val"])
        assert a["window_mean_val"] == pytest.approx(b["window_mean_val"])


# -- one scan loop, every remaining source: rows and counter conservation ----

SCAN_QUERIES = [
    # Whole-span aggregate (every ISK chunk), a time-sliced row query
    # (pruned plan) and a value predicate (mask + filter).
    "SELECT COUNT(*) AS n, AVG(D.sample_value) AS mean FROM dataview "
    "WHERE F.station = 'ISK' AND F.channel = 'BHE'",
    "SELECT D.sample_time, D.sample_value FROM dataview "
    f"WHERE F.station = 'FIAM' AND D.sample_time >= {EPOCH_2010_MS + 2 * HOUR_MS} "
    f"AND D.sample_time < {EPOCH_2010_MS + 5 * HOUR_MS}",
    "SELECT COUNT(*) AS n, MAX(D.sample_value) AS top FROM dataview "
    "WHERE D.sample_value > 100",
]

# (options, wave): a wave issues each query from WAVE_CLIENTS threads at
# once, so identical scans share one in-flight result.
SCAN_CONFIGS = [
    pytest.param(dict(io_threads=threads, **source), wave,
                 id=f"{name}-io{threads}")
    for threads in (1, 4)
    for name, source, wave in (
        ("private", {}, False),
        ("wave", {}, True),
        ("prefetch+result_cache", {"prefetch": True, "result_cache": True},
         False),
    )
] + [
    # The ablation values: no chunk pruning, no time-bound inference and
    # join rule r2 off.  Stage one names more chunks; rows stay equal.
    pytest.param(
        dict(io_threads=4, prune_chunks=False, infer_time_bounds=False,
             rules=RuleSet.disabled("r2")),
        False, id="ablation-io4",
    ),
]
WAVE_CLIENTS = 3


@pytest.fixture(scope="module")
def serial_reference(tiny_repo):
    from repro.core.two_stage import TwoStageOptions

    db, _ = prepare("lazy", tiny_repo[0], options=TwoStageOptions(io_threads=1))
    try:
        return [db.query(sql).table.to_dicts() for sql in SCAN_QUERIES]
    finally:
        db.close()


def run_wave(db, sql: str) -> list:
    """``sql`` from WAVE_CLIENTS threads released together."""
    barrier = threading.Barrier(WAVE_CLIENTS)

    def client(_):
        barrier.wait()
        return db.query(sql)

    with ThreadPoolExecutor(max_workers=WAVE_CLIENTS) as executor:
        return list(executor.map(client, range(WAVE_CLIENTS)))


@pytest.mark.parametrize("options, wave", SCAN_CONFIGS)
def test_every_scan_source_matches_serial_and_conserves_chunks(
    tiny_repo, serial_reference, options, wave
):
    from repro.core.two_stage import TwoStageOptions

    db, _ = prepare("lazy", tiny_repo[0], options=TwoStageOptions(**options))
    try:
        # Two passes: cold (loads) then warm (hits), same conservation law;
        # with the result cache on, the warm pass is answered from it.  The
        # warm pass repeats every text, so each of its queries is a
        # plan-cache hit.
        for round_no in range(2):
            warm_cached = round_no == 1 and options.get("result_cache", False)
            hits = plan_cache_hits(db)
            issued = 0
            for sql, expected in zip(SCAN_QUERIES, serial_reference):
                results = run_wave(db, sql) if wave else [db.query(sql)]
                issued += len(results)
                for result in results:
                    assert result.table.to_dicts() == expected
                    stats = result.stats
                    fetched = (
                        stats.chunks_loaded
                        + stats.chunks_rehydrated
                        + stats.chunks_from_cache
                    )
                    if warm_cached:
                        assert result.result_cache == "exact"
                        assert fetched == stats.chunks_shared == 0
                        continue
                    assert result.result_cache is None
                    planned = sum(
                        len(p.chunks) for p in result.rewrite.chunk_plans
                    )
                    assert planned > 0
                    assert fetched + stats.chunks_shared == planned
                    if not wave:
                        assert stats.chunks_shared == 0
            if round_no == 1:
                assert plan_cache_hits(db) - hits == issued
        assert not db.database._scans
    finally:
        db.close()
