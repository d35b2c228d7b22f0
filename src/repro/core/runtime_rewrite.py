"""Run-time query optimization: rewrite rule (1) of the paper.

Between the two execution stages, every access to an actual-data table is
rewritten using the stage-one result::

    scan(a)  →  chunk-scan( planner(f ∈ result-scan(Qf)) )

Stage one has already decided everything the metadata knows (time,
``file_id``, ``segment_no``).  The chunk planner
(:mod:`repro.engine.chunk_planner`) then *prunes* the stage-one chunk set
against decoded value ranges — a chunk whose ranges cannot satisfy the
scan's literal bound conjuncts contributes no rows, so skipping its fetch
is free correctness-preserving work — and labels every surviving chunk with the tier it is predicted to be served
from (recycler-resident, spilled mmap, remote fetch+decode).  The
resulting :class:`~repro.engine.chunk_planner.ChunkPlan` rides inside one
:class:`~repro.engine.algebra.ParallelChunkScan`, whose serial
(``io_threads == 1``) and pooled execution both fetch in assembly
(stage-one URI) order and assemble rows in it, so results are
bit-identical across them.

When a selection sits directly on the scan, it is pushed into the chunk
pipeline (the paper's second rewrite rule) and doubles as the pruning
predicate; the chunk itself is cached unfiltered so later queries with
different predicates still benefit.

The paper's per-chunk union — cache-scan for chunks in ``C``, chunk-access
otherwise — is that one scan node: the recycler decides per chunk which
of the two a fetch is.

The rewrite builds a new plan and leaves its input untouched;
:meth:`~repro.core.two_stage.TwoStageCompiler.plan_stage_two` calls it
once per execution with the chunks that execution's stage one named.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..engine import algebra
from ..engine.database import Database
from .schema import SommelierConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.chunk_planner import ChunkPlan

__all__ = ["RewriteReport", "rewrite_actual_scans"]


@dataclass
class RewriteReport:
    """What the run-time optimizer decided (inspectable by tests/benches)."""

    required_uris: list[str] = field(default_factory=list)
    pruned_uris: list[str] = field(default_factory=list)
    chunk_plans: "list[ChunkPlan]" = field(default_factory=list)
    rewrote_scans: int = 0
    # The actual data is already in D (an eager database): the scans were
    # left as compiled, so no chunk is planned or fetched.
    actual_resident: bool = False
    # perf_counter() timestamp at which stage one handed over control —
    # the stage boundary used for the paper's stage-time breakdowns.
    stage_boundary_perf: float | None = None


def rewrite_actual_scans(
    plan: algebra.LogicalPlan,
    database: Database,
    config: SommelierConfig,
    uris: list[str],
    report: RewriteReport,
    io_threads: int = 1,
    prune_chunks: bool = True,
) -> algebra.LogicalPlan:
    """Replace scans of actual-data tables by planned chunk access paths.

    Every rewritten scan goes through the database's chunk planner: the
    candidate URIs are pruned against decoded value ranges (when
    ``prune_chunks`` and a predicate allow it) and labelled with their
    predicted serving tier.  The surviving chunks become one
    :class:`~repro.engine.algebra.ParallelChunkScan` driven by that plan;
    identical scans running at the same time share one result at
    execution, since their finished rows are the same.
    """
    actual = set(config.actual_tables)

    def make_chunk_set(scan: algebra.Scan, predicate) -> algebra.LogicalPlan:
        chunk_plan = database.chunk_planner.plan(
            uris, scan.table_name, predicate, prune=prune_chunks
        )
        report.chunk_plans.append(chunk_plan)
        report.pruned_uris.extend(p.uri for p in chunk_plan.pruned)
        return algebra.ParallelChunkScan(
            chunk_plan,
            scan.table_name,
            scan.schema,
            pushed_predicate=predicate,
            io_threads=io_threads,
        )

    def transform(node: algebra.LogicalPlan) -> algebra.LogicalPlan:
        if (
            isinstance(node, algebra.Select)
            and isinstance(node.child, algebra.Scan)
            and node.child.table_name in actual
        ):
            report.rewrote_scans += 1
            return make_chunk_set(node.child, node.predicate)
        if isinstance(node, algebra.Scan) and node.table_name in actual:
            report.rewrote_scans += 1
            return make_chunk_set(node, None)
        return node.with_children([transform(c) for c in node.children()])

    return transform(plan)

