"""Run-time query optimization: rewrite rule (1) of the paper.

Between the two execution stages, every access to an actual-data table is
rewritten using the stage-one result::

    scan(a)  →  schedule( planner(f ∈ result-scan(Qf)) )

The chunk planner (:mod:`repro.engine.chunk_planner`) first *prunes* the
stage-one chunk set against per-chunk min/max statistics — a chunk whose
ranges cannot satisfy the scan's literal bound conjuncts contributes no
rows, so skipping its fetch is free correctness-preserving work — then
classifies every surviving chunk by the tier it will be served from
(recycler-resident < spilled mmap < remote fetch+decode) and emits a
cost-ordered fetch schedule.  The resulting
:class:`~repro.engine.chunk_planner.ChunkPlan` rides inside one
:class:`~repro.engine.algebra.ParallelChunkScan`, whose serial
(``io_threads == 1``) and pooled execution honor the same schedule — fetch
order is identical across them, and assembly order keeps results
bit-identical to unscheduled execution.

When a selection sits directly on the scan, it is pushed into the chunk
pipeline (the paper's second rewrite rule) and doubles as the pruning
predicate; the chunk itself is cached unfiltered so later queries with
different predicates still benefit.

The classic per-chunk union — cache-scan for chunks in ``C``, chunk-access
otherwise — remains the rewrite shape for the *in-situ* chunk access
strategy, whose sub-chunk selective decode lives inside the ``ChunkAccess``
operator.

The rewrite happens inside the MAL program: the Run-time Optimizer locates
the pending ``EvalPlan`` instructions and replaces the relevant plan
subtrees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..engine import algebra
from ..engine.database import Database
from ..engine.errors import ExecutionError
from ..engine.mal import EvalPlan, MalProgram
from ..engine.physical import ExecutionContext
from .schema import SommelierConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.chunk_planner import ChunkPlan

__all__ = ["RewriteReport", "make_runtime_optimizer", "rewrite_actual_scans"]


@dataclass
class RewriteReport:
    """What the run-time optimizer decided (inspectable by tests/benches)."""

    required_uris: list[str] = field(default_factory=list)
    cached_uris: list[str] = field(default_factory=list)
    loaded_uris: list[str] = field(default_factory=list)
    pruned_uris: list[str] = field(default_factory=list)
    chunk_plans: "list[ChunkPlan]" = field(default_factory=list)
    rewrote_scans: int = 0
    used_all_chunks_fallback: bool = False
    # perf_counter() timestamp at which stage one handed over control —
    # the stage boundary used for the paper's stage-time breakdowns.
    stage_boundary_perf: float | None = None


def _tail_scans_actual_tables(
    program: MalProgram, next_pc: int, config: SommelierConfig
) -> bool:
    """Does any pending EvalPlan scan an actual-data table?"""
    actual = set(config.actual_tables)

    def plan_has_actual_scan(node: algebra.LogicalPlan) -> bool:
        if isinstance(node, algebra.Scan) and node.table_name in actual:
            return True
        return any(plan_has_actual_scan(c) for c in node.children())

    return any(
        isinstance(instruction, EvalPlan)
        and plan_has_actual_scan(instruction.plan)
        for instruction in program.instructions[next_pc:]
    )


def _required_uris(
    ctx: ExecutionContext,
    input_var: str,
    config: SommelierConfig,
    report: RewriteReport,
) -> list[str]:
    """Distinct chunk URIs named by the stage-one result.

    Falls back to *every* registered chunk when the metadata branch did not
    expose the URI column — the paper's only-AD case where "there is no
    alternative to paying the price for loading all AD anyway".
    """
    stage_one = ctx.stage_results[input_var]
    if stage_one.schema.has(config.uri_column):
        uris = sorted(set(stage_one.column(config.uri_column).to_list()))
    else:
        loader = ctx.database.chunk_loader
        known = getattr(loader, "_file_ids", None)
        if known is None:
            raise ExecutionError(
                "stage one lacks the chunk URI column and the chunk loader "
                "cannot enumerate chunks"
            )
        uris = sorted(known)
        report.used_all_chunks_fallback = True
    report.required_uris = list(uris)
    return uris


def rewrite_actual_scans(
    plan: algebra.LogicalPlan,
    database: Database,
    config: SommelierConfig,
    uris: list[str],
    report: RewriteReport,
    push_selections: bool = True,
    io_threads: int = 1,
    prune_chunks: bool = True,
    shared: bool = False,
) -> algebra.LogicalPlan:
    """Replace scans of actual-data tables by planned chunk access paths.

    Every rewritten scan goes through the database's chunk planner: the
    candidate URIs are pruned against per-chunk statistics (when
    ``prune_chunks`` and a predicate allow it), classified by serving tier
    and cost-ordered.  The surviving chunks become one
    :class:`~repro.engine.algebra.ParallelChunkScan` driven by that plan on
    every executor; the in-situ access strategy instead keeps the classic
    serial union of cache-scans / chunk-accesses (its selective decode
    lives inside ``ChunkAccess``), built from the same pruned plan.
    """
    actual = set(config.actual_tables)
    cached = database.recycler.cached_uris()
    in_situ = database.chunk_access_strategy == "in_situ"

    def make_access(uri: str, scan: algebra.Scan,
                    predicate) -> algebra.LogicalPlan:
        if uri in cached:
            access: algebra.LogicalPlan = algebra.CacheScan(
                uri, scan.table_name, scan.schema
            )
            if predicate is not None:
                access = algebra.Select(access, predicate)
            return access
        return algebra.ChunkAccess(
            uri, scan.table_name, scan.schema, pushed_predicate=predicate
        )

    def make_chunk_set(
        scan: algebra.Scan, predicate, planning_predicate
    ) -> algebra.LogicalPlan:
        chunk_plan = database.chunk_planner.plan(
            uris, scan.table_name, planning_predicate, prune=prune_chunks
        )
        report.chunk_plans.append(chunk_plan)
        report.pruned_uris.extend(p.uri for p in chunk_plan.pruned)
        if in_situ:
            # Sub-chunk selective decode needs the per-chunk access
            # operator; scheduling is moot (decodes are partial), but the
            # planner's pruning still applies.
            if not chunk_plan.chunks:
                return algebra.EmptyRelation(scan.schema)
            return algebra.Union(
                [
                    make_access(chunk.uri, scan, predicate)
                    for chunk in chunk_plan.chunks
                ]
            )
        return algebra.ParallelChunkScan(
            chunk_plan,
            scan.table_name,
            scan.schema,
            pushed_predicate=predicate,
            io_threads=io_threads,
            shared=shared,
        )

    def transform(node: algebra.LogicalPlan) -> algebra.LogicalPlan:
        if (
            isinstance(node, algebra.Select)
            and isinstance(node.child, algebra.Scan)
            and node.child.table_name in actual
        ):
            report.rewrote_scans += 1
            if not uris:
                return node  # base table is empty in lazy mode: 0 rows
            predicate = node.predicate if push_selections else None
            # The planner always sees the full selection: pruning is safe
            # whenever the predicate is applied to the surviving rows,
            # whether pushed into the chunk set or kept above it.
            chunk_set = make_chunk_set(node.child, predicate, node.predicate)
            if not push_selections:
                return algebra.Select(chunk_set, node.predicate)
            return chunk_set
        if isinstance(node, algebra.Scan) and node.table_name in actual:
            report.rewrote_scans += 1
            if not uris:
                return node
            return make_chunk_set(node, None, None)
        return _rebuild(node, transform)

    return transform(plan)


def _rebuild(node: algebra.LogicalPlan, transform) -> algebra.LogicalPlan:
    if isinstance(node, algebra.Select):
        return algebra.Select(transform(node.child), node.predicate)
    if isinstance(node, algebra.Project):
        return algebra.Project(transform(node.child), node.outputs)
    if isinstance(node, algebra.Join):
        return algebra.Join(
            transform(node.left), transform(node.right), node.condition
        )
    if isinstance(node, algebra.Aggregate):
        return algebra.Aggregate(
            transform(node.child), node.group_by, node.aggregates
        )
    if isinstance(node, algebra.Union):
        return algebra.Union([transform(c) for c in node.children()])
    if isinstance(node, algebra.Sort):
        return algebra.Sort(transform(node.child), node.keys)
    if isinstance(node, algebra.Limit):
        return algebra.Limit(transform(node.child), node.count)
    if isinstance(node, algebra.Distinct):
        return algebra.Distinct(transform(node.child))
    return node


def make_runtime_optimizer(
    database: Database,
    config: SommelierConfig,
    report: RewriteReport,
    io_threads: int = 1,
    push_selections: bool = True,
    prune_chunks: bool = True,
    shared: bool = False,
):
    """Build the callback installed into ``CallRuntimeOptimizer``."""

    def runtime_optimize(
        ctx: ExecutionContext, program: MalProgram, next_pc: int
    ) -> None:
        import time

        report.stage_boundary_perf = time.perf_counter()
        # A metadata-only query (T1/T2/T3) has no actual-data scans left in
        # the program tail: nothing to rewrite, nothing to load.
        if not _tail_scans_actual_tables(program, next_pc, config):
            return
        call = program.instructions[next_pc - 1]
        input_var = getattr(call, "input_var", "qf")
        uris = _required_uris(ctx, input_var, config, report)

        new_tail: list = []
        for instruction in program.instructions[next_pc:]:
            if isinstance(instruction, EvalPlan):
                rewritten = rewrite_actual_scans(
                    instruction.plan,
                    database,
                    config,
                    uris,
                    report,
                    push_selections=push_selections,
                    io_threads=io_threads,
                    prune_chunks=prune_chunks,
                    shared=shared,
                )
                new_tail.append(EvalPlan(instruction.var, rewritten))
            else:
                new_tail.append(instruction)
        program.replace_from(next_pc, new_tail)

        # Post-planning accounting: what survives, where it comes from,
        # what statistics proved irrelevant.
        pruned = set(report.pruned_uris)
        ctx.stats.chunks_pruned += len(report.pruned_uris)
        cached = database.recycler.cached_uris()
        survivors = [uri for uri in uris if uri not in pruned]
        report.cached_uris = sorted(set(survivors) & cached)
        report.loaded_uris = [uri for uri in survivors if uri not in cached]

    return runtime_optimize
