"""Statistics-driven pruning end to end: results identical, fetches saved.

The correctness contract of the chunk planner is absolute: pruned
execution must be bit-identical to unpruned execution on every workload,
because a pruned chunk is one whose rows the predicate would have filtered
out anyway.  These tests exercise that across executors, the persistence
boundary, and the explain surface.
"""

import pytest

from repro.core.loading import prepare
from repro.core.sommelier import SommelierDB
from repro.core.two_stage import TwoStageOptions
from repro.data.ingv import EPOCH_2010_MS
from repro.workloads import QueryParams, t4_query

MILLIS_PER_DAY = 24 * 3600 * 1000


def value_query(threshold: int) -> str:
    return (
        "SELECT COUNT(*) AS n, AVG(D.sample_value) AS mean "
        "FROM dataview "
        f"WHERE D.sample_value >= {threshold}"
    )


def prime_sql() -> str:
    """A full-scan aggregate: loads every chunk, enriching all statistics."""
    return "SELECT COUNT(*) AS n FROM dataview"


def same_rows(a, b) -> bool:
    """Row-by-row equality that treats NaN == NaN (empty-input AVG)."""
    rows_a, rows_b = a.table.to_dicts(), b.table.to_dicts()
    if len(rows_a) != len(rows_b):
        return False
    for row_a, row_b in zip(rows_a, rows_b):
        if set(row_a) != set(row_b):
            return False
        for key in row_a:
            va, vb = row_a[key], row_b[key]
            if va != vb and not (va != va and vb != vb):
                return False
    return True


def chunk_value_maxima(db) -> list[float]:
    return sorted(
        entry.ranges["D.sample_value"][1]
        for entry in db.database.chunk_stats.snapshot().values()
    )


class TestPrunedEqualsUnpruned:
    @pytest.mark.parametrize("io_threads", [1, 4])
    def test_value_threshold_results_identical(self, tiny_repo, io_threads):
        pruned_db, _ = prepare(
            "lazy", tiny_repo[0],
            options=TwoStageOptions(io_threads=io_threads, prune_chunks=True),
        )
        plain_db, _ = prepare(
            "lazy", tiny_repo[0],
            options=TwoStageOptions(io_threads=io_threads, prune_chunks=False),
        )
        try:
            pruned_db.query(prime_sql())
            plain_db.query(prime_sql())
            maxima = chunk_value_maxima(pruned_db)
            assert len(maxima) == 8
            # Thresholds at every interesting selectivity: all chunks, a
            # middle slice, one chunk, none.
            thresholds = [
                int(maxima[0]) - 1,
                int(maxima[len(maxima) // 2]),
                int(maxima[-1]),
                int(maxima[-1]) + 1,
            ]
            pruned_db.drop_caches()
            plain_db.drop_caches()
            for threshold in thresholds:
                a = pruned_db.query(value_query(threshold))
                b = plain_db.query(value_query(threshold))
                assert same_rows(a, b)
                assert b.stats.chunks_pruned == 0
                expected_pruned = sum(1 for m in maxima if m < threshold)
                assert a.stats.chunks_pruned == expected_pruned
        finally:
            pruned_db.close()
            plain_db.close()

    def test_pruned_chunks_are_never_fetched(self, tiny_repo):
        db, _ = prepare(
            "lazy", tiny_repo[0], options=TwoStageOptions(io_threads=1)
        )
        try:
            db.query(prime_sql())
            maxima = chunk_value_maxima(db)
            db.drop_caches()
            impossible = int(maxima[-1]) + 1
            result = db.query(value_query(impossible))
            assert result.stats.chunks_pruned == 8
            assert result.stats.chunks_loaded == 0
            assert [len(p.chunks) for p in result.rewrite.chunk_plans] == [0]
            assert len(result.rewrite.pruned_uris) == 8
            assert result.table.to_dicts()[0]["n"] == 0
        finally:
            db.close()

    def test_time_window_queries_unaffected_by_pruning(self, tiny_repo):
        """Stage one already narrows by time; pruning must agree with it."""
        start = EPOCH_2010_MS
        sql = t4_query(
            QueryParams(
                station="ISK", channel="BHE",
                start_ms=start, end_ms=start + MILLIS_PER_DAY,
            )
        )
        pruned_db, _ = prepare(
            "lazy", tiny_repo[0], options=TwoStageOptions(prune_chunks=True)
        )
        plain_db, _ = prepare(
            "lazy", tiny_repo[0], options=TwoStageOptions(prune_chunks=False)
        )
        try:
            a = pruned_db.query(sql)
            b = plain_db.query(sql)
            assert a.table.to_dicts() == b.table.to_dicts()
            assert a.stats.chunks_loaded == b.stats.chunks_loaded == 1
        finally:
            pruned_db.close()
            plain_db.close()


class TestStatsSurviveRestart:
    def test_value_pruning_works_after_reopen(self, tiny_repo, tmp_path):
        workdir = str(tmp_path / "db")
        db, _ = prepare("lazy", tiny_repo[0], workdir=workdir)
        db.query(prime_sql())
        maxima = chunk_value_maxima(db)
        impossible = int(maxima[-1]) + 1
        db.close()  # checkpoints chunk statistics with the catalog pointers

        reopened = SommelierDB.open(workdir)
        try:
            assert len(reopened.database.chunk_stats) == 8
            result = reopened.query(value_query(impossible))
            # No fetch, no decode, no re-hydrate: statistics answered it.
            assert result.stats.chunks_pruned == 8
            assert result.stats.chunks_loaded == 0
            assert result.stats.chunks_rehydrated == 0
        finally:
            reopened.close()

    def test_store_sidecars_recover_stats_without_checkpoint(
        self, tiny_repo, tmp_path
    ):
        workdir = str(tmp_path / "db")
        db, _ = prepare("lazy", tiny_repo[0], workdir=workdir)
        db.query(prime_sql())
        db.database.recycler.flush_to_store()
        # Simulate a crash: no checkpoint is written, but committed store
        # entries carry their statistics sidecars.
        db.database.close()
        reopened = SommelierDB.open(workdir)
        try:
            assert len(reopened.database.chunk_stats) == 8
        finally:
            reopened.close()


class TestExplainSurface:
    def test_explain_chunks_reports_plan(self, lazy_db, day_range):
        start, end = day_range
        sql = t4_query(
            QueryParams(
                station="ISK", channel="BHE", start_ms=start, end_ms=end
            )
        )
        rendered = lazy_db.explain_chunks(sql)
        assert "1 candidate chunk(s)" in rendered
        assert "remote" in rendered
        # Explaining must not have fetched anything.
        assert len(lazy_db.database.recycler) == 0

    def test_explain_chunks_shows_pruning(self, tiny_repo):
        db, _ = prepare("lazy", tiny_repo[0])
        try:
            db.query(prime_sql())
            maxima = chunk_value_maxima(db)
            rendered = db.explain_chunks(value_query(int(maxima[-1]) + 1))
            assert "8 pruned by statistics" in rendered
        finally:
            db.close()

    def test_metadata_only_query_has_no_chunk_plan(self, lazy_db):
        rendered = lazy_db.explain_chunks(
            "SELECT COUNT(*) AS n FROM gmdview WHERE F.station = 'ISK'"
        )
        assert "metadata-only" in rendered
