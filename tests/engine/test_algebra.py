"""Validation tests for logical plan node construction."""

import pytest

from repro.engine import algebra
from repro.engine.errors import PlanError, TypeMismatchError
from repro.engine.expressions import Comparison, col, lit
from repro.engine.table import Schema
from repro.engine.types import FLOAT64, INT64, STRING


@pytest.fixture()
def schema():
    return Schema.of(("T.a", INT64), ("T.b", STRING), ("T.c", FLOAT64))


@pytest.fixture()
def scan(schema):
    return algebra.Scan("T", schema)


class TestValidation:
    def test_select_unknown_column(self, scan):
        with pytest.raises(PlanError):
            algebra.Select(scan, Comparison("=", col("T.missing"), lit(1)))

    def test_project_empty_outputs(self, scan):
        with pytest.raises(PlanError):
            algebra.Project(scan, [])

    def test_project_schema_types(self, scan):
        project = algebra.Project(scan, [("x", col("T.c"))])
        assert project.schema.field("x").dtype is FLOAT64

    def test_join_schema_concat(self, scan, schema):
        other = algebra.Scan("U", Schema.of(("U.k", INT64)))
        join = algebra.Join(scan, other, None)
        assert join.schema.names == ("T.a", "T.b", "T.c", "U.k")
        assert join.is_cross_product

    def test_join_condition_validated(self, scan):
        other = algebra.Scan("U", Schema.of(("U.k", INT64)))
        with pytest.raises(PlanError):
            algebra.Join(scan, other, Comparison("=", col("T.a"), col("V.x")))

    def test_aggregate_requires_something(self, scan):
        with pytest.raises(PlanError):
            algebra.Aggregate(scan, [], [])

    def test_aggregate_unknown_group_column(self, scan):
        with pytest.raises(PlanError):
            algebra.Aggregate(
                scan, ["T.missing"],
                [algebra.AggregateSpec("COUNT", None, "n")],
            )

    def test_aggregate_spec_unknown_function(self):
        with pytest.raises(PlanError):
            algebra.AggregateSpec("MEDIAN", col("T.a"), "m")

    def test_count_star_only_aggregate_without_argument(self):
        with pytest.raises(PlanError):
            algebra.AggregateSpec("SUM", None, "s")

    def test_union_requires_children(self):
        with pytest.raises(PlanError):
            algebra.Union([])

    def test_union_name_mismatch(self, scan):
        other = algebra.Scan("U", Schema.of(("U.k", INT64)))
        with pytest.raises(PlanError):
            algebra.Union([scan, other])

    def test_union_type_mismatch(self, schema):
        a = algebra.Scan("T", schema)
        b = algebra.Scan(
            "T", Schema.of(("T.a", STRING), ("T.b", STRING), ("T.c", FLOAT64))
        )
        with pytest.raises(TypeMismatchError):
            algebra.Union([a, b])

    def test_sort_requires_keys(self, scan):
        with pytest.raises(PlanError):
            algebra.Sort(scan, [])

    def test_sort_unknown_key(self, scan):
        with pytest.raises(PlanError):
            algebra.Sort(scan, [algebra.SortKey("T.missing")])

    def test_limit_negative(self, scan):
        with pytest.raises(PlanError):
            algebra.Limit(scan, -1)


class TestIntrospection:
    def test_base_tables_union(self, scan):
        other = algebra.Scan("U", Schema.of(("U.k", INT64)))
        join = algebra.Join(scan, other, None)
        assert join.base_tables() == {"T", "U"}

    def test_base_tables_chunk_access(self, schema):
        access = algebra.ParallelChunkScan(["file:///x"], "T", schema)
        assert access.base_tables() == {"T"}

    def test_pretty_indents_children(self, scan):
        plan = algebra.Limit(
            algebra.Select(scan, Comparison("=", col("T.a"), lit(1))), 3
        )
        lines = plan.pretty().splitlines()
        assert lines[0].startswith("Limit")
        assert lines[1].startswith("  Select")
        assert lines[2].startswith("    Scan")

    def test_describe_mentions_predicate(self, scan):
        select = algebra.Select(scan, Comparison("=", col("T.a"), lit(1)))
        assert "T.a" in select.describe()

    def test_empty_relation_schema(self):
        empty = algebra.EmptyRelation()
        assert len(empty.schema) == 0

    def test_aggregate_output_types(self, scan):
        agg = algebra.Aggregate(
            scan,
            [],
            [
                algebra.AggregateSpec("COUNT", None, "n"),
                algebra.AggregateSpec("AVG", col("T.a"), "mean"),
                algebra.AggregateSpec("SUM", col("T.c"), "total"),
                algebra.AggregateSpec("MIN", col("T.a"), "lo"),
            ],
        )
        assert agg.schema.field("n").dtype is INT64
        assert agg.schema.field("mean").dtype is FLOAT64
        assert agg.schema.field("total").dtype is FLOAT64
        assert agg.schema.field("lo").dtype is INT64
