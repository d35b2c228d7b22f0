"""Validation tests for logical plan node construction."""

import pytest

from repro.engine import algebra
from repro.engine.database import Database
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


@pytest.fixture()
def chunk_plan():
    database = Database()
    try:
        yield database.chunk_planner.plan(["file:///x"], "T")
    finally:
        database.close()


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

    def test_base_tables_chunk_access(self, schema, chunk_plan):
        access = algebra.ParallelChunkScan(chunk_plan, "T", schema)
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


def every_node(schema, chunk_plan) -> dict[str, algebra.LogicalPlan]:
    """One instance of every plan node type, keyed by type name."""
    scan = algebra.Scan("T", schema)
    other = algebra.Scan("U", Schema.of(("U.k", INT64)))
    predicate = Comparison(">", col("T.a"), lit(1))
    nodes = [
        scan,
        algebra.EmptyRelation(schema),
        algebra.ResultScan("qf", schema),
        algebra.ParallelChunkScan(chunk_plan, "T", schema, predicate),
        algebra.Select(scan, predicate),
        algebra.Project(scan, [("x", col("T.c")), ("y", col("T.a"))]),
        algebra.Join(scan, other, Comparison("=", col("T.a"), col("U.k"))),
        algebra.Aggregate(
            scan, ["T.b"], [algebra.AggregateSpec("MAX", col("T.c"), "hi")]
        ),
        algebra.Union([scan, scan]),
        algebra.Sort(scan, [algebra.SortKey("T.a", ascending=False)]),
        algebra.Limit(scan, 3),
        algebra.Distinct(scan),
    ]
    return {type(node).__name__: node for node in nodes}


NODE_TYPES = [
    "Scan", "EmptyRelation", "ResultScan", "ParallelChunkScan", "Select",
    "Project", "Join", "Aggregate", "Union", "Sort", "Limit", "Distinct",
]


class TestWithChildren:
    def test_every_node_type_is_listed(self, schema, chunk_plan):
        defined = {cls.__name__ for cls in algebra.LogicalPlan.__subclasses__()}
        assert set(every_node(schema, chunk_plan)) == set(NODE_TYPES) == defined

    @pytest.mark.parametrize("name", NODE_TYPES)
    def test_rebuild_over_own_children_is_equivalent(
        self, name, schema, chunk_plan
    ):
        node = every_node(schema, chunk_plan)[name]
        rebuilt = node.with_children(node.children())
        if not node.children():
            assert rebuilt is node
            return
        assert rebuilt is not node
        assert type(rebuilt) is type(node)
        assert rebuilt.pretty() == node.pretty()
        assert [(f.name, f.dtype) for f in rebuilt.schema] == [
            (f.name, f.dtype) for f in node.schema
        ]
        assert list(rebuilt.children()) == list(node.children())

    def test_rebuild_takes_the_new_children(self, scan):
        narrowed = algebra.Select(scan, Comparison("=", col("T.a"), lit(1)))
        rebuilt = algebra.Limit(scan, 3).with_children([narrowed])
        assert rebuilt.child is narrowed
        assert rebuilt.count == 3
