"""Chunk planner unit tests: pruning rules and tier classification."""

import numpy as np
import pytest

from repro.engine.chunk_planner import (
    ChunkPlanner,
    TIER_REMOTE,
    TIER_RESIDENT,
    TIER_SPILLED,
)
from repro.engine.column import Column
from repro.engine.database import Database
from repro.engine.expressions import BooleanOp, Comparison, col, lit
from repro.engine.predicates import LiteralBounds
from repro.engine.table import Schema, Table
from repro.engine.types import INT64, TIMESTAMP


def make_chunk(values, times) -> Table:
    schema = Schema.of(("D.sample_time", TIMESTAMP), ("D.sample_value", INT64))
    return Table(
        schema,
        [
            Column(TIMESTAMP, np.asarray(times, dtype=np.int64)),
            Column(INT64, np.asarray(values, dtype=np.int64)),
        ],
    )


@pytest.fixture()
def database(tmp_path):
    db = Database(workdir=str(tmp_path / "db"))
    yield db
    db.close()


def bounds(*ops) -> LiteralBounds:
    return LiteralBounds.from_conjuncts(ops)


class TestPredicateHelpers:
    def test_range_may_satisfy_matrix(self):
        assert bounds((">", 5)).may_overlap(0, 10)
        assert not bounds((">", 10)).may_overlap(0, 10)
        assert bounds((">=", 10)).may_overlap(0, 10)
        assert not bounds((">=", 11)).may_overlap(0, 10)
        assert bounds(("<", 1)).may_overlap(0, 10)
        assert not bounds(("<", 0)).may_overlap(0, 10)
        assert bounds(("<=", 0)).may_overlap(0, 10)
        assert not bounds(("<=", -1)).may_overlap(0, 10)
        assert bounds(("=", 10)).may_overlap(0, 10)
        assert not bounds(("=", 11)).may_overlap(0, 10)
        # Non-numeric literals and unknown operators never prune.
        assert bounds((">", "text")).may_overlap(0, 10)
        assert bounds(("=", "text")).may_overlap(0, 10)
        unknown = Comparison("<>", col("D.sample_value"), lit(5))
        assert LiteralBounds.by_column(unknown) == {}

    def test_literal_bounds_by_column_both_orientations(self):
        predicate = BooleanOp(
            "AND",
            [
                Comparison(">=", col("D.sample_time"), lit(100)),
                Comparison(">", lit(200), col("D.sample_time")),
                Comparison("=", col("D.file_id"), lit(7)),
                Comparison("=", col("D.file_id"), col("S.file_id")),
            ],
        )
        found = LiteralBounds.by_column(predicate)
        assert found["D.sample_time"] == bounds((">=", 100), ("<", 200))
        assert found["D.sample_time"].low == (100, True)
        assert found["D.sample_time"].high == (200, False)
        assert found["D.file_id"] == bounds(("=", 7))
        assert set(found) == {"D.sample_time", "D.file_id"}
        assert LiteralBounds.by_column(None) == {}

    def test_closed_int_bounds(self):
        assert bounds((">", 9), ("<", 20)).int_range() == (10, 19)
        assert bounds(("=", 5)).int_range() == (5, 5)
        # Fractional edges round inward: the low edge up, the high down.
        assert bounds((">", 2.5)).int_range() == (3, None)
        assert bounds((">=", 2.5), ("<=", 7.5)).int_range() == (3, 7)
        assert bounds(("<", 7.5)).int_range() == (None, 7)
        # A fractional point admits no integer.
        low, high = bounds(("=", 2.5)).int_range()
        assert low > high


class TestPruning:
    def test_value_bounds_prune_only_enriched(self, database):
        database.chunk_stats.observe_table("a", make_chunk([0, 50], [0, 1]))
        predicate = Comparison(">", col("D.sample_value"), lit(100))
        plan = database.chunk_planner.plan(["a", "b"], "D", predicate)
        assert [p.uri for p in plan.pruned] == ["a"]
        assert plan.uris == ("b",)
        assert plan.pruned[0].reason == "D.sample_value"

    def test_no_stats_no_pruning(self, database):
        predicate = Comparison(">", col("D.sample_value"), lit(10**12))
        plan = database.chunk_planner.plan(["x", "y"], "D", predicate)
        assert plan.pruned == ()
        assert plan.uris == ("x", "y")

    def test_prune_flag_off(self, database):
        database.chunk_stats.observe_table("a", make_chunk([0], [0]))
        predicate = Comparison(">", col("D.sample_value"), lit(100))
        plan = database.chunk_planner.plan(["a"], "D", predicate, prune=False)
        assert plan.pruned == ()

    def test_equality_bound_prunes_disjoint_file_ids(self, database):
        for file_id in (0, 1):
            chunk = Table(
                Schema.of(("D.file_id", INT64)),
                [Column(INT64, np.full(2, file_id, dtype=np.int64))],
            )
            database.chunk_stats.observe_table(f"f{file_id}", chunk)
        predicate = Comparison("=", col("D.file_id"), lit(1))
        plan = database.chunk_planner.plan(["f0", "f1"], "D", predicate)
        assert plan.uris == ("f1",)

    def test_planner_counters_accumulate(self, database):
        database.chunk_stats.observe_table("a", make_chunk([0], [0]))
        predicate = Comparison(">", col("D.sample_value"), lit(100))
        database.chunk_planner.plan(["a", "b"], "D", predicate)
        snapshot = database.chunk_planner.stats_snapshot()
        assert snapshot["plans_built"] == 1
        assert snapshot["chunks_considered"] == 2
        assert snapshot["chunks_pruned"] == 1
        assert snapshot["chunks_scheduled"] == 1


class TestTiersAndSchedule:
    def test_tier_classification_keeps_assembly_order(self, database):
        chunk = make_chunk([1, 2, 3], [10, 20, 30])
        # resident: in the recycler's memory tier
        database.recycler.put("resident", chunk)
        # spilled: only in the on-disk store
        database.chunk_store.put("spilled", chunk)
        plan = database.chunk_planner.plan(
            ["remote", "resident", "spilled"], "D", None
        )
        by_uri = {c.uri: c for c in plan.chunks}
        assert by_uri["resident"].tier == TIER_RESIDENT
        assert by_uri["spilled"].tier == TIER_SPILLED
        assert by_uri["remote"].tier == TIER_REMOTE
        # The tier is a label: chunks stay in assembly (given URI) order.
        assert plan.uris == ("remote", "resident", "spilled")


class TestChunkPlanObject:
    def test_describe_lists_schedule_and_pruned(self, database):
        database.chunk_stats.observe_table("a", make_chunk([0], [0]))
        predicate = Comparison(">", col("D.sample_value"), lit(100))
        plan = database.chunk_planner.plan(["a", "b"], "D", predicate)
        rendered = plan.describe()
        assert "1 to fetch, 1 pruned" in rendered
        assert "[00] remote    b" in rendered
        assert "pruned (D.sample_value)" in rendered

    def test_parallel_chunk_scan_accepts_plan_and_lists(self, database):
        from repro.engine import algebra
        from repro.engine.table import Schema

        plan = database.chunk_planner.plan(["u1", "u2"], "D", None)
        node = algebra.ParallelChunkScan(plan, "D", Schema([]))
        assert node.plan is plan
        assert node.uris == ("u1", "u2")
