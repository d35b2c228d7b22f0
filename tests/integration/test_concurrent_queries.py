"""Concurrent serving: N threads over one SommelierDB match serial results."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.loading import prepare
from repro.core.two_stage import TwoStageOptions
from repro.data.ingv import EPOCH_2010_MS
from repro.workloads.queries import QueryParams, t1_query, t2_query, t4_query

MILLIS_PER_DAY = 24 * 3600 * 1000

STATIONS = (("ISK", "BHE"), ("FIAM", "HHZ"), ("ARCI", "BHZ"), ("LATE", "BHN"))


def workload(two_days: tuple[int, int]) -> list[str]:
    """A mixed T1/T2/T4 workload across every station of the tiny repo."""
    start, end = two_days
    queries: list[str] = []
    for station, channel in STATIONS:
        params = QueryParams(
            station=station, channel=channel, start_ms=start, end_ms=end
        )
        queries.append(t1_query(params))
        queries.append(t4_query(params))
        queries.append(t2_query(params))
    return queries


@pytest.fixture()
def two_days():
    return EPOCH_2010_MS, EPOCH_2010_MS + 2 * MILLIS_PER_DAY


@pytest.fixture()
def parallel_db(tiny_repo):
    db, _ = prepare(
        "lazy", tiny_repo[0], options=TwoStageOptions(io_threads=4)
    )
    yield db
    db.close()


def run_query(db, sql: str):
    return db.query(sql).table.to_dicts()


class TestConcurrentEquivalence:
    def test_threads_match_serial_results(self, parallel_db, two_days):
        queries = workload(two_days)
        expected = [run_query(parallel_db, sql) for sql in queries]
        parallel_db.drop_caches()

        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [
                pool.submit(run_query, parallel_db, sql)
                for sql in queries * 2  # every query raced from two threads
            ]
            observed = [f.result() for f in futures]

        for i, _sql in enumerate(queries):
            assert observed[i] == expected[i]
            assert observed[len(queries) + i] == expected[i]

    def test_cold_racing_threads_on_same_query(self, parallel_db, two_days):
        sql = t4_query(
            QueryParams(
                station="ISK", channel="BHE",
                start_ms=two_days[0], end_ms=two_days[1],
            )
        )
        expected = run_query(parallel_db, sql)
        parallel_db.drop_caches()

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(
                pool.map(lambda _: run_query(parallel_db, sql), range(8))
            )
        assert all(result == expected for result in results)

    def test_parallel_stage_two_matches_serial(self, tiny_repo, two_days):
        sql = t4_query(
            QueryParams(
                station="ISK", channel="BHE",
                start_ms=two_days[0], end_ms=two_days[1],
            )
        )
        serial_db, _ = prepare(
            "lazy", tiny_repo[0], options=TwoStageOptions(io_threads=1)
        )
        parallel_db, _ = prepare(
            "lazy", tiny_repo[0], options=TwoStageOptions(io_threads=4)
        )
        try:
            serial = serial_db.query(sql)
            parallel = parallel_db.query(sql)
            assert serial.table.to_dicts() == parallel.table.to_dicts()
            assert parallel.stats.chunks_loaded == serial.stats.chunks_loaded
        finally:
            serial_db.close()
            parallel_db.close()

    def test_concurrent_derivation_no_duplicate_windows(
        self, parallel_db, two_days
    ):
        sql = t2_query(
            QueryParams(
                station="ISK", channel="BHE",
                start_ms=two_days[0], end_ms=two_days[1],
            )
        )
        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(
                pool.map(lambda _: run_query(parallel_db, sql), range(6))
            )
        assert all(result == results[0] for result in results)
        h = parallel_db.database.catalog.table("H").data
        keys = list(
            zip(
                h.column("window_station").values,
                h.column("window_channel").values,
                h.column("window_start_ts").values,
            )
        )
        assert len(keys) == len(set(keys)), "derivation double-materialized"

