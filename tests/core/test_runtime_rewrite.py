"""Unit tests for the run-time rewrite (rewrite rule (1)) in isolation.

Every rewritten actual-data scan becomes one
:class:`~repro.engine.algebra.ParallelChunkScan` carrying a
statistics-pruned :class:`ChunkPlan` (the serial executor is the same
scan loop with ``io_threads == 1``) — the paper's union of cache-scans /
chunk-accesses as one node.
"""

import pytest

from repro.core.runtime_rewrite import RewriteReport, rewrite_actual_scans
from repro.engine import algebra
from repro.engine.chunk_planner import TIER_REMOTE, TIER_RESIDENT
from repro.engine.expressions import Comparison, col, lit
from repro.engine.physical import ExecutionContext, execute_plan


def find_nodes(plan, node_type):
    found = []

    def visit(node):
        if isinstance(node, node_type):
            found.append(node)
        for child in node.children():
            visit(child)

    visit(plan)
    return found


@pytest.fixture()
def scan_d(lazy_db):
    return algebra.Scan("D", lazy_db.database.qualified_schema("D"))


@pytest.fixture()
def uris(lazy_db):
    return sorted(lazy_db.database.catalog.table("F").data.column("uri"))[:3]


class TestRewriteRule1:
    def test_plain_scan_becomes_planned_chunk_scan(
        self, lazy_db, scan_d, uris
    ):
        report = RewriteReport()
        rewritten = rewrite_actual_scans(
            scan_d, lazy_db.database, lazy_db.config, uris, report
        )
        assert isinstance(rewritten, algebra.ParallelChunkScan)
        assert list(rewritten.uris) == uris
        assert report.rewrote_scans == 1
        assert len(report.chunk_plans) == 1

    def test_all_uncached_planned_as_remote(self, lazy_db, scan_d, uris):
        report = RewriteReport()
        rewritten = rewrite_actual_scans(
            scan_d, lazy_db.database, lazy_db.config, uris, report
        )
        assert all(
            chunk.tier == TIER_REMOTE for chunk in rewritten.plan.chunks
        )

    def test_cached_chunks_planned_as_resident(self, lazy_db, scan_d, uris):
        # Warm one chunk into the recycler.
        table = lazy_db.database.load_chunk(uris[0], "D")
        lazy_db.database.recycler.put(uris[0], table)
        report = RewriteReport()
        rewritten = rewrite_actual_scans(
            scan_d, lazy_db.database, lazy_db.config, uris, report
        )
        tiers = {c.uri: c.tier for c in rewritten.plan.chunks}
        assert tiers[uris[0]] == TIER_RESIDENT
        assert all(tiers[uri] == TIER_REMOTE for uri in uris[1:])

    def test_fetches_follow_assembly_order(
        self, lazy_db, scan_d, uris, monkeypatch
    ):
        database = lazy_db.database
        table = database.load_chunk(uris[0], "D")
        database.recycler.put(uris[0], table)
        report = RewriteReport()
        rewritten = rewrite_actual_scans(
            scan_d, database, lazy_db.config, uris, report, io_threads=1
        )
        plan = rewritten.plan
        assert plan.chunks[0].tier == TIER_RESIDENT
        fetched = []
        fetch_chunk = database.fetch_chunk

        def recording_fetch(uri, table_name):
            fetched.append(uri)
            return fetch_chunk(uri, table_name)

        monkeypatch.setattr(database, "fetch_chunk", recording_fetch)
        execute_plan(rewritten, ExecutionContext(database))
        # The resident chunk is not deferred: fetch order is URI order.
        assert fetched == list(plan.uris)

    def test_selection_pushed_into_chunk_scan(self, lazy_db, scan_d, uris):
        predicate = Comparison(">", col("D.sample_value"), lit(0))
        plan = algebra.Select(scan_d, predicate)
        report = RewriteReport()
        rewritten = rewrite_actual_scans(
            plan, lazy_db.database, lazy_db.config, uris, report
        )
        assert isinstance(rewritten, algebra.ParallelChunkScan)
        assert rewritten.pushed_predicate is predicate

    def test_empty_uri_list_plans_no_chunk(self, lazy_db, scan_d):
        report = RewriteReport()
        rewritten = rewrite_actual_scans(
            scan_d, lazy_db.database, lazy_db.config, [], report
        )
        assert isinstance(rewritten, algebra.ParallelChunkScan)
        assert rewritten.uris == ()

    def test_metadata_scans_untouched(self, lazy_db, uris):
        scan_f = algebra.Scan("F", lazy_db.database.qualified_schema("F"))
        report = RewriteReport()
        rewritten = rewrite_actual_scans(
            scan_f, lazy_db.database, lazy_db.config, uris, report
        )
        assert rewritten is scan_f or isinstance(rewritten, algebra.Scan)
        assert report.rewrote_scans == 0

    def test_parallel_rewrite_emits_pipeline_node(self, lazy_db, scan_d, uris):
        report = RewriteReport()
        rewritten = rewrite_actual_scans(
            scan_d, lazy_db.database, lazy_db.config, uris, report,
            io_threads=4,
        )
        assert isinstance(rewritten, algebra.ParallelChunkScan)
        assert list(rewritten.uris) == uris
        assert rewritten.io_threads == 4
        assert report.rewrote_scans == 1

    def test_single_chunk_uses_same_scheduler(self, lazy_db, scan_d, uris):
        report = RewriteReport()
        rewritten = rewrite_actual_scans(
            scan_d, lazy_db.database, lazy_db.config, uris[:1], report,
            io_threads=4,
        )
        assert isinstance(rewritten, algebra.ParallelChunkScan)
        assert len(rewritten.plan.chunks) == 1

    def test_rewrite_inside_join(self, lazy_db, scan_d, uris):
        scan_s = algebra.Scan("S", lazy_db.database.qualified_schema("S"))
        join = algebra.Join(
            scan_s, scan_d, Comparison("=", col("S.file_id"), col("D.file_id"))
        )
        report = RewriteReport()
        rewritten = rewrite_actual_scans(
            join, lazy_db.database, lazy_db.config, uris, report
        )
        assert isinstance(rewritten, algebra.Join)
        assert isinstance(rewritten.right, algebra.ParallelChunkScan)


class TestUnionShape:
    """Rule (1)'s per-chunk union is the one ``ParallelChunkScan``.

    Cache-scans and chunk-accesses are not nodes of their own: the plan
    records which tier serves each chunk, and a selection on the scan is
    applied inside it.
    """

    @staticmethod
    def _rewrite(db, plan, uris):
        report = RewriteReport()
        rewritten = rewrite_actual_scans(
            plan, db.database, db.config, uris, report
        )
        return rewritten, report

    def test_scan_becomes_union_of_chunk_accesses(self, lazy_db, scan_d, uris):
        rewritten, report = self._rewrite(lazy_db, scan_d, uris)
        assert isinstance(rewritten, algebra.ParallelChunkScan)
        assert list(rewritten.uris) == uris
        assert report.rewrote_scans == 1 and len(report.chunk_plans) == 1

    def test_cached_chunks_become_cache_scans(self, lazy_db, scan_d, uris):
        table = lazy_db.database.load_chunk(uris[0], "D")
        lazy_db.database.recycler.put(uris[0], table)
        predicate = Comparison("<", col("D.sample_time"), lit(10**15))
        plan = algebra.Select(scan_d, predicate)
        rewritten, _ = self._rewrite(lazy_db, plan, uris)
        assert find_nodes(rewritten, algebra.ParallelChunkScan) == [rewritten]
        assert rewritten.plan.chunks[0].tier == TIER_RESIDENT

    def test_selection_above_cache_scan(self, lazy_db, scan_d, uris):
        table = lazy_db.database.load_chunk(uris[0], "D")
        lazy_db.database.recycler.put(uris[0], table)
        predicate = Comparison(">", col("D.sample_value"), lit(0))
        plan = algebra.Select(scan_d, predicate)
        rewritten, _ = self._rewrite(lazy_db, plan, [uris[0]])
        # σp(cache-scan(f)) is the pushed predicate of the one scan.
        assert isinstance(rewritten, algebra.ParallelChunkScan)
        assert rewritten.pushed_predicate is predicate


class TestStatisticsPruning:
    def test_value_predicate_prunes_enriched_chunks(
        self, lazy_db, scan_d, uris
    ):
        # Enrich one chunk's statistics via a decode; its max sample value
        # bounds what any predicate can demand of it.
        lazy_db.database.load_chunk(uris[0], "D")
        stats = lazy_db.database.chunk_stats.get(uris[0])
        assert stats is not None
        _, high = stats.ranges["D.sample_value"]
        predicate = Comparison(">", col("D.sample_value"), lit(int(high) + 1))
        plan = algebra.Select(scan_d, predicate)
        report = RewriteReport()
        rewritten = rewrite_actual_scans(
            plan, lazy_db.database, lazy_db.config, uris, report
        )
        assert uris[0] in report.pruned_uris
        assert uris[0] not in rewritten.uris

    def test_unenriched_chunks_never_value_pruned(self, lazy_db, scan_d, uris):
        predicate = Comparison(">", col("D.sample_value"), lit(10**9))
        plan = algebra.Select(scan_d, predicate)
        report = RewriteReport()
        rewritten = rewrite_actual_scans(
            plan, lazy_db.database, lazy_db.config, uris, report
        )
        # Registration-time stats know nothing about sample values.
        assert report.pruned_uris == []
        assert list(rewritten.uris) == uris

    def test_time_predicate_prunes_from_registration_stats(self, lazy_db):
        # No decode needed: stage one reads the segment spans registration
        # put in S, and names no chunk; the planner gets an empty list.
        sql = "SELECT COUNT(*) AS n FROM D WHERE D.sample_time < 0"
        compiled = lazy_db.compiler.compile(lazy_db.bind(sql))
        rewritten, report = lazy_db.compiler.plan_stage_two(compiled)
        assert report.required_uris == []
        (scan,) = find_nodes(rewritten, algebra.ParallelChunkScan)
        assert scan.uris == ()
        result = lazy_db.query(sql)
        assert result.stats.chunks_loaded == 0
        assert result.table.to_dicts() == [{"n": 0}]

    def test_pruning_disabled_keeps_everything(self, lazy_db, scan_d, uris):
        predicate = Comparison("<", col("D.sample_time"), lit(0))
        plan = algebra.Select(scan_d, predicate)
        report = RewriteReport()
        rewritten = rewrite_actual_scans(
            plan, lazy_db.database, lazy_db.config, uris, report,
            prune_chunks=False,
        )
        assert report.pruned_uris == []
        assert list(rewritten.uris) == uris
