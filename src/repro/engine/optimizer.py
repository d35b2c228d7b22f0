"""Rule-based logical optimizer (the engine's generic rewrite pipeline).

The passes here are the standard compile-time optimizations the paper
assumes exist before its own extensions run ("usual compile-time
optimizations (e.g. pushing down selections and projections, etc.) are
performed", Section III):

* selection pushdown — σ moves below joins onto the side that defines all
  referenced columns, and merges into existing selects;
* predicate simplification — constant folding of comparisons between
  literals, AND flattening, duplicate-conjunct elimination;
* join-block extraction helpers used by the paper's compile-time optimizer
  (in :mod:`repro.core`) to re-order joins.

Projection pushdown is not a plan rewrite here: plans keep their full
schemas, and the executor passes each operator's needed columns down
(:func:`repro.engine.physical.execute_plan`), so every node materializes
only the columns read above it.

The paper's partial-loading rules (R1–R4, plan split, runtime rewrite) are
implemented in :mod:`repro.core.coloring` and :mod:`repro.core.two_stage`;
they plug into this pipeline rather than replacing it.
"""

from __future__ import annotations

from . import algebra
from .expressions import (
    BooleanOp,
    Comparison,
    Expression,
    Literal,
    conjoin,
    conjuncts,
    referenced_columns,
)

__all__ = ["optimize", "push_down_selections", "simplify_predicates"]

_COMPARE = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def optimize(plan: algebra.LogicalPlan) -> algebra.LogicalPlan:
    """Run the standard pipeline: simplify, then push selections down."""
    plan = simplify_predicates(plan)
    plan = push_down_selections(plan)
    return plan


# -- predicate simplification -----------------------------------------------------


def _fold_expression(expression: Expression) -> Expression:
    """Fold literal-literal comparisons and flatten nested ANDs."""
    if isinstance(expression, Comparison):
        left = _fold_expression(expression.left)
        right = _fold_expression(expression.right)
        if isinstance(left, Literal) and isinstance(right, Literal):
            try:
                value = _COMPARE[expression.op](left.value, right.value)
                return Literal(bool(value))
            except TypeError:
                pass
        return Comparison(expression.op, left, right)
    if isinstance(expression, BooleanOp) and expression.op == "AND":
        parts: list[Expression] = []
        seen: set = set()
        for conjunct in conjuncts(expression):
            folded = _fold_expression(conjunct)
            if isinstance(folded, Literal) and folded.value is True:
                continue
            if folded.key() in seen:
                continue
            seen.add(folded.key())
            parts.append(folded)
        merged = conjoin(parts)
        return merged if merged is not None else Literal(True)
    if isinstance(expression, BooleanOp):
        return BooleanOp(
            expression.op, [_fold_expression(o) for o in expression.operands]
        )
    return expression


def simplify_predicates(plan: algebra.LogicalPlan) -> algebra.LogicalPlan:
    """Apply predicate folding throughout the plan tree."""
    if isinstance(plan, algebra.Select):
        child = simplify_predicates(plan.child)
        predicate = _fold_expression(plan.predicate)
        if isinstance(predicate, Literal) and predicate.value is True:
            return child
        return algebra.Select(child, predicate)
    if isinstance(plan, algebra.Join):
        left = simplify_predicates(plan.left)
        right = simplify_predicates(plan.right)
        condition = (
            None if plan.condition is None else _fold_expression(plan.condition)
        )
        return algebra.Join(left, right, condition)
    return _rebuild_with_children(plan, simplify_predicates)


# -- selection pushdown -------------------------------------------------------------


def push_down_selections(plan: algebra.LogicalPlan) -> algebra.LogicalPlan:
    """Push σ conjuncts as deep as the columns they reference allow."""
    return _pushdown(plan, [])


def _pushdown(
    plan: algebra.LogicalPlan, pending: list[Expression]
) -> algebra.LogicalPlan:
    if isinstance(plan, algebra.Select):
        return _pushdown(plan.child, pending + conjuncts(plan.predicate))

    if isinstance(plan, algebra.Join):
        left_names = set(plan.left.schema.names)
        right_names = set(plan.right.schema.names)
        to_left: list[Expression] = []
        to_right: list[Expression] = []
        stay: list[Expression] = []
        for predicate in pending:
            referenced = referenced_columns(predicate)
            if referenced <= left_names:
                to_left.append(predicate)
            elif referenced <= right_names:
                to_right.append(predicate)
            else:
                stay.append(predicate)
        new_left = _pushdown(plan.left, to_left)
        new_right = _pushdown(plan.right, to_right)
        rebuilt: algebra.LogicalPlan = algebra.Join(
            new_left, new_right, plan.condition
        )
        return _wrap_select(rebuilt, stay)

    if isinstance(plan, algebra.Union):
        # A predicate over union output applies to every branch.
        children = [
            _pushdown(child, list(pending)) for child in plan.children()
        ]
        return algebra.Union(children)

    if isinstance(plan, (algebra.Scan, algebra.ResultScan)):
        return _wrap_select(plan, pending)

    # Pipeline-breaking operators: recurse without crossing them, then apply
    # the pending predicates above.
    rebuilt = _rebuild_with_children(plan, lambda c: _pushdown(c, []))
    return _wrap_select(rebuilt, pending)


def _wrap_select(
    plan: algebra.LogicalPlan, predicates: list[Expression]
) -> algebra.LogicalPlan:
    condition = conjoin(predicates)
    if condition is None:
        return plan
    return algebra.Select(plan, condition)


# -- generic reconstruction -----------------------------------------------------------


def _rebuild_with_children(plan: algebra.LogicalPlan, transform) -> algebra.LogicalPlan:
    """Rebuild a node with transformed children (identity for leaves)."""
    if isinstance(plan, algebra.Project):
        return algebra.Project(transform(plan.child), plan.outputs)
    if isinstance(plan, algebra.Aggregate):
        return algebra.Aggregate(
            transform(plan.child), plan.group_by, plan.aggregates
        )
    if isinstance(plan, algebra.Sort):
        return algebra.Sort(transform(plan.child), plan.keys)
    if isinstance(plan, algebra.Limit):
        return algebra.Limit(transform(plan.child), plan.count)
    if isinstance(plan, algebra.Distinct):
        return algebra.Distinct(transform(plan.child))
    if isinstance(plan, algebra.Union):
        return algebra.Union([transform(c) for c in plan.children()])
    if isinstance(plan, algebra.Select):
        return algebra.Select(transform(plan.child), plan.predicate)
    if isinstance(plan, algebra.Join):
        return algebra.Join(
            transform(plan.left), transform(plan.right), plan.condition
        )
    return plan
