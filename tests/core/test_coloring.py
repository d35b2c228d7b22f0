"""Tests for query-graph coloring and join-order rules R1–R4."""

import pytest
from hypothesis import given, strategies as st

from repro.core.coloring import (
    ColoredGraph,
    EdgeColor,
    RuleSet,
    order_joins,
)
from repro.engine import algebra
from repro.engine.errors import PlanError
from repro.engine.expressions import Comparison, col, lit
from repro.engine.join_graph import QueryGraph, build_query_graph
from repro.engine.table import Schema
from repro.engine.types import INT64


def schema_for(name):
    return Schema.of((f"{name}.k", INT64), (f"{name}.v", INT64))


def join_plan(*specs):
    """Build a left-deep join over named tables with k=k conditions."""
    tables = list(specs)
    plan = algebra.Scan(tables[0], schema_for(tables[0]))
    for name in tables[1:]:
        plan = algebra.Join(
            plan,
            algebra.Scan(name, schema_for(name)),
            Comparison("=", col(f"{tables[0]}.k"), col(f"{name}.k")),
        )
    return plan


def sizes(**kwargs):
    return lambda name: kwargs.get(name, 100)


class TestEdgeColoring:
    def test_colors(self):
        plan = join_plan("m1", "m2", "a1")
        graph = build_query_graph(plan)
        colored = ColoredGraph(graph, red_tables={"m1", "m2"})
        colors = {
            tuple(sorted(edge.tables)): colored.edge_color(edge)
            for edge in graph.edges.values()
        }
        assert colors[("m1", "m2")] == EdgeColor.RED
        assert colors[("a1", "m1")] == EdgeColor.BLUE

    def test_black_edge(self):
        plan = algebra.Join(
            algebra.Scan("a1", schema_for("a1")),
            algebra.Scan("a2", schema_for("a2")),
            Comparison("=", col("a1.k"), col("a2.k")),
        )
        graph = build_query_graph(plan)
        colored = ColoredGraph(graph, red_tables=set())
        edge = next(iter(graph.edges.values()))
        assert colored.edge_color(edge) == EdgeColor.BLACK

    def test_vertex_partition(self):
        graph = build_query_graph(join_plan("m1", "a1"))
        colored = ColoredGraph(graph, red_tables={"m1"})
        assert colored.red_vertices == {"m1"}
        assert colored.black_vertices == {"a1"}


def assert_reds_before_blacks(order, reds):
    red_positions = [i for i, n in enumerate(order) if n in reds]
    black_positions = [i for i, n in enumerate(order) if n not in reds]
    if red_positions and black_positions:
        assert max(red_positions) < min(black_positions)


def black_subtree_is_linear(plan, reds):
    """R3: below any join with a black vertex, the right input is a leaf."""

    def contains_black(node):
        return any(t not in reds for t in node.base_tables())

    def visit(node):
        if isinstance(node, algebra.Join) and contains_black(node):
            right = node.right
            while isinstance(right, algebra.Select):
                right = right.child
            # right side holding black vertices must be a single leaf
            if (
                contains_black(node.left)
                or not isinstance(right, algebra.Scan)
            ) and (
                contains_black(node.right)
                and not isinstance(right, algebra.Scan)
            ):
                return False
            if not visit(node.left):
                return False
            if not visit(node.right):
                return False
        elif isinstance(node, algebra.Join):
            return visit(node.left) and visit(node.right)
        return True

    return visit(plan)


class TestOrderJoins:
    def test_r1_reds_first(self):
        plan = join_plan("m1", "a1", "m2")
        graph = build_query_graph(plan)
        reds = {"m1", "m2"}
        colored = ColoredGraph(graph, reds)
        ordered = order_joins(colored, sizes())
        assert_reds_before_blacks(ordered.join_order, reds)
        assert ordered.metadata_branch is not None
        assert ordered.metadata_branch.base_tables() == reds

    def test_r2_cross_product_merges_disconnected_reds(self):
        # m2 is only connected to a1 (blue edge); joining m1 and m2 needs a
        # cross product before any blue edge may be used.
        m1 = algebra.Scan("m1", schema_for("m1"))
        m2 = algebra.Scan("m2", schema_for("m2"))
        a1 = algebra.Scan("a1", schema_for("a1"))
        plan = algebra.Join(
            algebra.Join(
                m1, a1, Comparison("=", col("m1.k"), col("a1.k"))
            ),
            m2,
            Comparison("=", col("a1.v"), col("m2.v")),
        )
        graph = build_query_graph(plan)
        colored = ColoredGraph(graph, {"m1", "m2"})
        ordered = order_joins(colored, sizes())
        assert ordered.used_cross_product
        assert_reds_before_blacks(ordered.join_order, {"m1", "m2"})

    def test_r2_disabled_avoids_cross_product(self):
        m1 = algebra.Scan("m1", schema_for("m1"))
        m2 = algebra.Scan("m2", schema_for("m2"))
        a1 = algebra.Scan("a1", schema_for("a1"))
        plan = algebra.Join(
            algebra.Join(
                m1, a1, Comparison("=", col("m1.k"), col("a1.k"))
            ),
            m2,
            Comparison("=", col("a1.v"), col("m2.v")),
        )
        graph = build_query_graph(plan)
        colored = ColoredGraph(graph, {"m1", "m2"})
        ordered = order_joins(
            colored, sizes(), RuleSet.disabled("r2")
        )
        # Without R2, m2 is joined later through its blue edge (no cross
        # product), so the metadata branch contains only m1.
        assert not ordered.used_cross_product
        assert ordered.metadata_branch.base_tables() == {"m1"}

    def test_local_predicates_attached_to_leaves(self):
        plan = algebra.Select(
            join_plan("m1", "a1"),
            Comparison("=", col("m1.v"), lit(5)),
        )
        graph = build_query_graph(plan)
        colored = ColoredGraph(graph, {"m1"})
        ordered = order_joins(colored, sizes())

        def find_selects(node):
            found = []
            stack = [node]
            while stack:
                current = stack.pop()
                if isinstance(current, algebra.Select):
                    found.append(current)
                stack.extend(current.children())
            return found

        selects = find_selects(ordered.plan)
        assert len(selects) == 1
        assert isinstance(selects[0].child, algebra.Scan)

    def test_metadata_only_graph(self):
        plan = join_plan("m1", "m2")
        graph = build_query_graph(plan)
        colored = ColoredGraph(graph, {"m1", "m2"})
        ordered = order_joins(colored, sizes())
        assert ordered.metadata_branch is ordered.plan

    def test_all_black_graph(self):
        plan = join_plan("a1", "a2")
        graph = build_query_graph(plan)
        colored = ColoredGraph(graph, set())
        ordered = order_joins(colored, sizes())
        assert ordered.metadata_branch is None
        assert set(ordered.join_order) == {"a1", "a2"}

    def test_empty_graph_rejected(self):
        from repro.engine.join_graph import QueryGraph

        with pytest.raises(PlanError):
            order_joins(ColoredGraph(QueryGraph(), set()), sizes())

    def test_unknown_rule_name(self):
        with pytest.raises(PlanError):
            RuleSet.disabled("r9")

    def test_smaller_table_seeds_red_plan(self):
        plan = join_plan("m1", "m2", "m3")
        graph = build_query_graph(plan)
        colored = ColoredGraph(graph, {"m1", "m2", "m3"})
        ordered = order_joins(colored, sizes(m1=1000, m2=10, m3=500))
        assert ordered.join_order[0] == "m2"

    def test_r3_linear_black_part(self):
        plan = join_plan("m1", "a1", "a2", "a3")
        graph = build_query_graph(plan)
        reds = {"m1"}
        colored = ColoredGraph(graph, reds)
        ordered = order_joins(colored, sizes())
        assert black_subtree_is_linear(ordered.plan, reds)


@st.composite
def colored_graphs(draw):
    """A random query graph over 2–6 vertices, each red or black, with
    random equi-join edges (possibly disconnected) and random sizes."""
    count = draw(st.integers(2, 6))
    names = [f"v{index}" for index in range(count)]
    red = {name for name in names if draw(st.booleans())}
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    rows = {name: draw(st.integers(0, 1000)) for name in names}
    graph = QueryGraph()
    for name in names:
        graph.add_vertex(name, schema_for(name))
    for a, b in edges:
        graph.add_predicate(Comparison("=", col(f"{a}.k"), col(f"{b}.k")))
    return ColoredGraph(graph, red), rows


def is_leaf(plan) -> bool:
    if isinstance(plan, algebra.Select):
        plan = plan.child
    return isinstance(plan, algebra.Scan)


class TestRulesHoldByConstruction:
    """R3 and R4 are invariants of every ordering, not switches."""

    @given(colored_graphs())
    def test_left_deep_and_black_edges_last(self, case):
        colored, rows = case
        ordered = order_joins(colored, lambda name: rows[name])
        composite = ordered.metadata_branch
        if colored.red_vertices:
            assert composite.base_tables() == colored.red_vertices
        # R3: every join above the red composite adds one leaf.
        node = ordered.plan
        while node is not composite and isinstance(node, algebra.Join):
            assert is_leaf(node.right)
            node = node.left
        assert node is composite or is_leaf(node)
        # R4: replay the order after the composite; a vertex joined only
        # over black edges means no pending vertex had a blue edge in.
        graph = colored.graph
        order = ordered.join_order

        def colors(name, joined):
            return {
                colored.edge_color(edge)
                for edge in graph.edges_of(name)
                if edge.other(name) in joined
            }

        start = max(len(colored.red_vertices), 1)
        for step in range(start, len(order)):
            joined = set(order[:step])
            if colors(order[step], joined) - {EdgeColor.BLACK}:
                continue
            assert not any(
                colors(name, joined) - {EdgeColor.BLACK}
                for name in order[step + 1:]
            )
