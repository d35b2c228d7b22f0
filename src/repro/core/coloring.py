"""Query-graph coloring and the paper's join-order rules R1–R4 (Section III).

Vertices (base tables) are colored **red** when they hold metadata — given
(GMd) or derived (DMd) — and **black** when they hold actual data.  Edges
inherit colors: red-red → red, black-black → black, red-black → **blue**.

The four additional optimizer rules:

* **R1** — join on red edges first, before anything else;
* **R2** — only if necessary, use cross products to join all red vertices
  into one, before using any blue or black edge;
* **R3** — do not allow bushy plans containing black vertices;
* **R4** — join on black edges only if all other edges are used.

:func:`order_joins` consumes a :class:`~repro.engine.join_graph.QueryGraph`
plus the red/black classification and emits a join tree satisfying the
rules, with the metadata branch (``Qf``) identified.  The red sub-tree may
be in any order (the paper allows bushy there); we use a greedy
smallest-relation-first heuristic.  The black part is strictly linear
(left-deep over the growing composite), so R3 holds by construction, and
a vertex reachable over a blue edge always goes before one reachable only
over black edges, so R4 does too.

R1 and R2 can be disabled individually — that is the ablation experiment
showing the rule set is *minimal* ("for each rule there is a query that
requires this rule to avoid loading unnecessary data").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..engine import algebra
from ..engine.errors import PlanError
from ..engine.expressions import Expression, conjoin
from ..engine.join_graph import Edge, QueryGraph

__all__ = ["EdgeColor", "RuleSet", "ColoredGraph", "OrderedJoin", "order_joins"]


class EdgeColor:
    RED = "red"
    BLUE = "blue"
    BLACK = "black"


@dataclass(frozen=True)
class RuleSet:
    """Which of the switchable rules R1 and R2 are active (both, by
    default); R3 and R4 always hold."""

    r1_red_first: bool = True
    r2_red_cross_products: bool = True

    @classmethod
    def disabled(cls, *names: str) -> "RuleSet":
        """A rule set with the named rules switched off (``'r1'``/``'r2'``)."""
        flags = {"r1": "r1_red_first", "r2": "r2_red_cross_products"}
        kwargs = {}
        for name in names:
            if name not in flags:
                raise PlanError(f"unknown rule {name!r}")
            kwargs[flags[name]] = False
        return cls(**kwargs)


class ColoredGraph:
    """A query graph plus its red/black vertex classification."""

    def __init__(self, graph: QueryGraph, red_tables: set[str]) -> None:
        self.graph = graph
        self.red_vertices = {
            name for name in graph.vertices if name in red_tables
        }
        self.black_vertices = set(graph.vertices) - self.red_vertices

    def edge_color(self, edge: Edge) -> str:
        reds = sum(1 for t in edge.tables if t in self.red_vertices)
        if reds == 2:
            return EdgeColor.RED
        if reds == 0:
            return EdgeColor.BLACK
        return EdgeColor.BLUE


@dataclass
class OrderedJoin:
    """The result of join ordering: the plan plus the Qf boundary."""

    plan: algebra.LogicalPlan
    metadata_branch: algebra.LogicalPlan | None
    join_order: list[str] = field(default_factory=list)
    used_cross_product: bool = False


def _leaf_plan(
    graph: QueryGraph,
    table_name: str,
    estimate_rows: Callable[[str], int],
) -> tuple[algebra.LogicalPlan, int]:
    """Scan + local selection for one vertex, with a row estimate."""
    vertex = graph.vertex(table_name)
    plan: algebra.LogicalPlan = algebra.Scan(table_name, vertex.schema)
    rows = max(estimate_rows(table_name), 1)
    predicate = vertex.local_predicate()
    if predicate is not None:
        plan = algebra.Select(plan, predicate)
        # Selections make relations smaller; a simple fixed selectivity
        # keeps the greedy ordering sane without real statistics.
        rows = max(rows // 10, 1)
    return plan, rows


def _join_condition_between(
    graph: QueryGraph, joined: set[str], newcomer: str
) -> Expression | None:
    """All edge predicates between the composite and the new vertex."""
    parts: list[Expression] = []
    for edge in graph.edges_of(newcomer):
        if edge.other(newcomer) in joined:
            parts.extend(edge.predicates)
    return conjoin(parts)


def order_joins(
    colored: ColoredGraph,
    estimate_rows: Callable[[str], int],
    rules: RuleSet = RuleSet(),
) -> OrderedJoin:
    """Produce a join tree obeying the enabled subset of R1–R4.

    ``estimate_rows`` supplies base-table cardinalities for the greedy
    heuristics (the paper's "simple join order optimizer that takes only
    selections into account" needs no more).
    """
    graph = colored.graph
    if not graph.vertices:
        raise PlanError("cannot order joins of an empty query graph")

    red = sorted(colored.red_vertices)
    black = sorted(colored.black_vertices)
    order: list[str] = []
    used_cross = False

    plans: dict[str, tuple[algebra.LogicalPlan, int]] = {
        name: _leaf_plan(graph, name, estimate_rows) for name in graph.vertices
    }

    # ---- Phase 1 (R1/R2): coalesce all red vertices into one composite.
    red_plan: algebra.LogicalPlan | None = None
    red_joined: set[str] = set()
    if red and rules.r1_red_first:
        # Greedy: start from the smallest red relation; repeatedly join the
        # smallest red vertex connected by a red edge; when none is
        # connected, fall back to a cross product (R2) if allowed.
        remaining = set(red)
        seed = min(remaining, key=lambda n: (plans[n][1], n))
        remaining.remove(seed)
        red_plan, red_rows = plans[seed]
        red_joined = {seed}
        order.append(seed)
        while remaining:
            connected = [
                name
                for name in remaining
                if any(
                    edge.other(name) in red_joined
                    and colored.edge_color(edge) == EdgeColor.RED
                    for edge in graph.edges_of(name)
                )
            ]
            if connected:
                nxt = min(connected, key=lambda n: (plans[n][1], n))
                condition = _join_condition_between(graph, red_joined, nxt)
            elif rules.r2_red_cross_products:
                nxt = min(remaining, key=lambda n: (plans[n][1], n))
                condition = _join_condition_between(graph, red_joined, nxt)
                if condition is None:
                    used_cross = True
            else:
                break  # ablation: leave disconnected red vertices for later
            remaining.remove(nxt)
            next_plan, next_rows = plans[nxt]
            red_plan = algebra.Join(red_plan, next_plan, condition)
            red_rows = max(red_rows, next_rows)
            red_joined.add(nxt)
            order.append(nxt)
        leftover_red = sorted(remaining)
    elif red:
        # R1 disabled (ablation): reds are treated like any other vertex.
        leftover_red = list(red)
    else:
        leftover_red = []

    # ---- Phase 2 (R3/R4): attach the remaining vertices left-deep.
    plan = red_plan
    joined = set(red_joined)
    metadata_branch = red_plan
    pending = leftover_red + black

    def pick_next() -> str:
        # R4: a vertex with a blue (or red) edge into the composite goes
        # before one whose edges into it are all black; a vertex with no
        # such edge at all comes last, as a cross product.
        def rank(name: str) -> tuple:
            colors = {
                colored.edge_color(edge)
                for edge in graph.edges_of(name)
                if edge.other(name) in joined
            }
            tier = 0 if colors - {EdgeColor.BLACK} else 1 if colors else 2
            return tier, plans[name][1], name

        return min(pending, key=rank)

    while pending:
        if plan is None:
            first = min(pending, key=lambda n: (plans[n][1], n))
            pending.remove(first)
            plan = plans[first][0]
            joined.add(first)
            order.append(first)
            if first in colored.red_vertices:
                metadata_branch = plan
            continue
        nxt = pick_next()
        pending.remove(nxt)
        condition = _join_condition_between(graph, joined, nxt)
        if condition is None:
            used_cross = True
        plan = algebra.Join(plan, plans[nxt][0], condition)
        joined.add(nxt)
        order.append(nxt)
        if nxt in colored.red_vertices and not colored.black_vertices & joined:
            metadata_branch = plan

    # Hyper-predicates (3+ tables) apply once everything is joined.
    residual = conjoin(graph.hyper_predicates)
    if residual is not None:
        plan = algebra.Select(plan, residual)

    return OrderedJoin(
        plan=plan,
        metadata_branch=metadata_branch,
        join_order=order,
        used_cross_product=used_cross,
    )
