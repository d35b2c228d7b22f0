"""Tests for physical plan evaluation over an in-memory database."""

import numpy as np
import pytest

from repro.engine import algebra
from repro.engine.catalog import TableKind
from repro.engine.database import Database
from repro.engine.expressions import (
    Arithmetic,
    BooleanOp,
    Comparison,
    col,
    lit,
)
from repro.engine.physical import ExecutionContext, execute_plan
from repro.engine.table import Schema, Table
from repro.engine.types import INT64, STRING


@pytest.fixture()
def db():
    database = Database(buffer_pool_bytes=1 << 20)
    database.catalog.create_table(
        "users",
        Schema.of(("id", INT64), ("name", STRING), ("dept", INT64)),
        TableKind.METADATA,
        primary_key=("id",),
    )
    database.catalog.create_table(
        "depts",
        Schema.of(("dept_id", INT64), ("dept_name", STRING)),
        TableKind.METADATA,
        primary_key=("dept_id",),
    )
    database.insert(
        "users",
        Table.from_rows(
            database.catalog.table("users").schema,
            [(1, "ann", 10), (2, "bob", 20), (3, "cat", 10), (4, "dan", 30)],
        ),
    )
    database.insert(
        "depts",
        Table.from_rows(
            database.catalog.table("depts").schema,
            [(10, "eng"), (20, "ops")],
        ),
    )
    yield database
    database.close()


def scan(db, name):
    return algebra.Scan(name, db.qualified_schema(name))


class TestScanSelectProject:
    def test_scan_emits_qualified_and_rowid(self, db):
        """The scan emits exactly the table's qualified columns: no rowid."""
        result = execute_plan(scan(db, "users"), ExecutionContext(db))
        assert result.schema.names == ("users.id", "users.name", "users.dept")
        assert scan(db, "users").schema.names == result.schema.names
        assert result.column("users.id").to_list() == [1, 2, 3, 4]

    def test_select(self, db):
        plan = algebra.Select(
            scan(db, "users"), Comparison("=", col("users.dept"), lit(10))
        )
        result = execute_plan(plan, ExecutionContext(db))
        assert result.column("users.name").to_list() == ["ann", "cat"]

    def test_project_expression(self, db):
        plan = algebra.Project(
            scan(db, "users"),
            [("double_dept", Arithmetic("*", col("users.dept"), lit(2)))],
        )
        result = execute_plan(plan, ExecutionContext(db))
        assert result.column("double_dept").to_list() == [20, 40, 20, 60]


class TestJoin:
    def test_equi_join(self, db):
        plan = algebra.Join(
            scan(db, "users"),
            scan(db, "depts"),
            Comparison("=", col("users.dept"), col("depts.dept_id")),
        )
        result = execute_plan(plan, ExecutionContext(db))
        assert result.num_rows == 3  # dan's dept 30 dangles
        names = sorted(result.column("users.name").to_list())
        assert names == ["ann", "bob", "cat"]

    def test_join_with_residual(self, db):
        condition = BooleanOp(
            "AND",
            [
                Comparison("=", col("users.dept"), col("depts.dept_id")),
                Comparison("=", col("depts.dept_name"), lit("eng")),
            ],
        )
        plan = algebra.Join(scan(db, "users"), scan(db, "depts"), condition)
        result = execute_plan(plan, ExecutionContext(db))
        assert sorted(result.column("users.name").to_list()) == ["ann", "cat"]

    def test_cross_product(self, db):
        plan = algebra.Join(scan(db, "users"), scan(db, "depts"), None)
        result = execute_plan(plan, ExecutionContext(db))
        assert result.num_rows == 8

    def test_join_stats_counted(self, db):
        ctx = ExecutionContext(db)
        plan = algebra.Join(
            scan(db, "users"),
            scan(db, "depts"),
            Comparison("=", col("users.dept"), col("depts.dept_id")),
        )
        execute_plan(plan, ctx)
        assert ctx.stats.joins_executed == 1
        assert ctx.stats.rows_joined == 3


class TestNeededColumns:
    """``execute_plan(..., needed)``: a node gathers what its parent reads."""

    def users_depts(self, db, extra=None):
        condition = Comparison("=", col("users.dept"), col("depts.dept_id"))
        if extra is not None:
            condition = BooleanOp("AND", [condition, extra])
        return algebra.Join(scan(db, "users"), scan(db, "depts"), condition)

    def test_join_gathers_only_needed_columns(self, db):
        plan = self.users_depts(db)
        full = execute_plan(plan, ExecutionContext(db))
        narrow = execute_plan(plan, ExecutionContext(db), {"depts.dept_name"})
        assert narrow.schema.names == ("depts.dept_name",)
        assert narrow.column("depts.dept_name") == full.column("depts.dept_name")

    def test_empty_need_keeps_the_row_count(self, db):
        for plan in (
            self.users_depts(db),
            algebra.Join(scan(db, "users"), scan(db, "depts"), None),
            scan(db, "users"),
        ):
            full = execute_plan(plan, ExecutionContext(db))
            narrow = execute_plan(plan, ExecutionContext(db), set())
            assert narrow.num_columns == 1
            assert narrow.num_rows == full.num_rows

    def test_residual_columns_are_read_but_need_not_be_needed(self, db):
        plan = self.users_depts(
            db, Comparison("=", col("depts.dept_name"), lit("eng"))
        )
        narrow = execute_plan(plan, ExecutionContext(db), {"users.name"})
        assert sorted(narrow.column("users.name").to_list()) == ["ann", "cat"]

    def test_select_projects_before_filtering(self, db):
        plan = algebra.Select(
            scan(db, "users"), Comparison(">", col("users.dept"), lit(15))
        )
        narrow = execute_plan(plan, ExecutionContext(db), {"users.name"})
        assert narrow.schema.names == ("users.name",)
        assert narrow.column("users.name").to_list() == ["bob", "dan"]

    def test_count_star_over_a_join(self, db):
        plan = algebra.Aggregate(
            self.users_depts(db), [], [algebra.AggregateSpec("COUNT", None, "n")]
        )
        assert execute_plan(plan, ExecutionContext(db)).to_dicts() == [{"n": 3}]


class TestAggregate:
    def test_scalar_aggregates(self, db):
        plan = algebra.Aggregate(
            scan(db, "users"),
            [],
            [
                algebra.AggregateSpec("COUNT", None, "n"),
                algebra.AggregateSpec("SUM", col("users.dept"), "total"),
                algebra.AggregateSpec("AVG", col("users.dept"), "mean"),
                algebra.AggregateSpec("MIN", col("users.dept"), "lo"),
                algebra.AggregateSpec("MAX", col("users.dept"), "hi"),
            ],
        )
        result = execute_plan(plan, ExecutionContext(db))
        row = result.to_dicts()[0]
        assert row == {"n": 4, "total": 70, "mean": 17.5, "lo": 10, "hi": 30}

    def test_grouped_aggregates(self, db):
        plan = algebra.Aggregate(
            scan(db, "users"),
            ["users.dept"],
            [algebra.AggregateSpec("COUNT", None, "n")],
        )
        result = execute_plan(plan, ExecutionContext(db))
        by_dept = {
            r["users.dept"]: r["n"] for r in result.to_dicts()
        }
        assert by_dept == {10: 2, 20: 1, 30: 1}

    def test_std_matches_numpy(self, db):
        plan = algebra.Aggregate(
            scan(db, "users"),
            [],
            [algebra.AggregateSpec("STD", col("users.dept"), "sd")],
        )
        result = execute_plan(plan, ExecutionContext(db))
        expected = float(np.std([10, 20, 10, 30]))
        assert result.to_dicts()[0]["sd"] == pytest.approx(expected)

    def test_empty_input_scalar(self, db):
        empty = algebra.Select(
            scan(db, "users"), Comparison("=", col("users.dept"), lit(999))
        )
        plan = algebra.Aggregate(
            empty,
            [],
            [
                algebra.AggregateSpec("COUNT", None, "n"),
                algebra.AggregateSpec("AVG", col("users.dept"), "mean"),
            ],
        )
        result = execute_plan(plan, ExecutionContext(db))
        row = result.to_dicts()[0]
        assert row["n"] == 0
        assert np.isnan(row["mean"])

    def test_empty_input_grouped(self, db):
        empty = algebra.Select(
            scan(db, "users"), Comparison("=", col("users.dept"), lit(999))
        )
        plan = algebra.Aggregate(
            empty, ["users.dept"], [algebra.AggregateSpec("COUNT", None, "n")]
        )
        result = execute_plan(plan, ExecutionContext(db))
        assert result.num_rows == 0


class TestOtherOperators:
    def test_union(self, db):
        plan = algebra.Union([scan(db, "users"), scan(db, "users")])
        result = execute_plan(plan, ExecutionContext(db))
        assert result.num_rows == 8

    def test_sort_asc_desc(self, db):
        plan = algebra.Sort(
            scan(db, "users"),
            [algebra.SortKey("users.dept", True), algebra.SortKey("users.id", False)],
        )
        result = execute_plan(plan, ExecutionContext(db))
        assert result.column("users.id").to_list() == [3, 1, 2, 4]

    def test_sort_strings(self, db):
        plan = algebra.Sort(
            scan(db, "users"), [algebra.SortKey("users.name", False)]
        )
        result = execute_plan(plan, ExecutionContext(db))
        assert result.column("users.name").to_list() == [
            "dan",
            "cat",
            "bob",
            "ann",
        ]

    def test_limit(self, db):
        plan = algebra.Limit(scan(db, "users"), 2)
        assert execute_plan(plan, ExecutionContext(db)).num_rows == 2

    def test_limit_beyond_rows(self, db):
        plan = algebra.Limit(scan(db, "users"), 100)
        assert execute_plan(plan, ExecutionContext(db)).num_rows == 4

    def test_distinct(self, db):
        plan = algebra.Distinct(
            algebra.Project(scan(db, "users"), [("d", col("users.dept"))])
        )
        result = execute_plan(plan, ExecutionContext(db))
        assert sorted(result.column("d").to_list()) == [10, 20, 30]

    def test_result_scan(self, db):
        ctx = ExecutionContext(db)
        ctx.stage_results["snap"] = execute_plan(scan(db, "depts"), ctx)
        plan = algebra.ResultScan("snap", db.qualified_schema("depts"))
        assert execute_plan(plan, ctx).num_rows == 2

    def test_result_scan_missing_tag(self, db):
        from repro.engine.errors import ExecutionError

        plan = algebra.ResultScan("nope", db.qualified_schema("depts"))
        with pytest.raises(ExecutionError):
            execute_plan(plan, ExecutionContext(db))
