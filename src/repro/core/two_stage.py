"""The two-stage query execution model (paper Section III).

The Compile-time Optimizer here does what Section V-2 describes for
MonetDB: it splits the query plan into ``Q = Qf ⋈ Qs`` — ``Qf`` being the
highest branch whose leaves are all metadata tables — and orders the joins
with rules R1–R4.  The result is an immutable :class:`CompiledQuery`; every
execution follows the same program (MonetDB's self-rewriting MAL program,
run here as direct calls)::

    [00] qf     := eval(Qf)                 # stage one: metadata only
    [01] call runtime-optimizer(qf)         # rewrite scan(a) per rule (1)
    [02] result := eval(Qs)                 # stage two: lazy-loaded data
    [03] return result

The rewrite of step [01] yields a fresh plan per execution and never
touches the compiled query, so one compiled query can run any number of
times, concurrently too.

It also performs *time-bound inference*: selection predicates on the
actual-data time attribute imply bounds on segment metadata
(``S.start_time`` / computed segment end), which is how stage one narrows
the chunk set by time.  A query over actual data alone gets a metadata
branch of its own, ``F.uri`` of ``F ⋈ σ(S)``, so stage one decides its
chunks the same way.

Every database runs this one program.  Whether step [01] rewrites is a
fact about ``D``, not a setting: once an eager preparation has put the
actual data in ``D``, the runtime optimizer leaves ``Qs`` as compiled and
stage two scans ``D`` (see :meth:`TwoStageCompiler.plan_stage_two`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Collection

from ..engine import algebra
from ..engine.database import Database
from ..engine.errors import PlanError
from ..engine.expressions import (
    Comparison,
    Expression,
    col,
    conjoin,
    referenced_columns,
    rename_columns,
)
from ..engine.join_graph import QueryGraph, build_query_graph
from ..engine.predicates import oriented_bound_conjuncts
from ..engine.physical import (
    CancelToken,
    ExecStats,
    ExecutionContext,
    execute_plan,
)
from ..engine.table import Table
from .coloring import ColoredGraph, RuleSet, order_joins
from .runtime_rewrite import RewriteReport, rewrite_actual_scans
from .schema import SommelierConfig

__all__ = ["TwoStageOptions", "QueryResult", "CompiledQuery", "TwoStageCompiler"]

_JOIN_BLOCK_NODES = (algebra.Scan, algebra.Select, algebra.Join)


@dataclass(frozen=True)
class TwoStageOptions:
    """Knobs for the compile-time and run-time optimizers.

    ``io_threads`` sizes the shared decode pool of the morsel-style
    stage-two pipeline (1 = the serial per-chunk union).

    ``infer_time_bounds`` lets stage one narrow the chunks by the segment
    spans in ``S`` that literal bounds on the actual-data time imply.

    ``prune_chunks`` lets the runtime optimizer drop chunks whose decoded
    value ranges cannot satisfy the query's literal predicates before any
    fetch happens (results are unaffected by construction).

    ``prefetch`` enables the facade-level workload-aware prefetcher: after
    each query it predicts the session's next chunks from its query
    history and warms the recycler asynchronously.

    ``result_cache`` enables the facade-level semantic result recycler
    (:mod:`repro.core.result_cache`): finished query results are cached by
    normalized plan fingerprint, exact repeats skip both stages, and a
    cached result whose bounds cover a new query answers it by
    re-filtering.  Off by default — the experiments that measure stage
    costs must re-execute.

    The fields are independent: every combination is legal and returns
    rows bit-identical to cold serial execution.
    """

    rules: RuleSet = field(default_factory=RuleSet)
    io_threads: int = 4
    infer_time_bounds: bool = True
    prune_chunks: bool = True
    prefetch: bool = False
    result_cache: bool = False

    def __post_init__(self) -> None:
        if self.io_threads < 1:
            raise ValueError(f"io_threads must be >= 1, got {self.io_threads}")


@dataclass
class QueryResult:
    """A delivered query answer plus everything the experiments measure."""

    table: Table
    # Wall time: from the SQL text through bind/compile, Algorithm 1 and
    # the cache or execution when answered by ``SommelierDB.query``;
    # execution only when returned by ``execute_compiled`` itself.
    seconds: float
    stage_one_seconds: float = 0.0
    stage_two_seconds: float = 0.0
    stats: ExecStats = field(default_factory=ExecStats)
    rewrite: RewriteReport = field(default_factory=RewriteReport)
    # uri -> fetch outcome of every chunk stage two fetched.
    chunk_outcomes: dict[str, str] = field(default_factory=dict)
    join_order: list[str] = field(default_factory=list)
    # Stage two read chunks through rule (1) rather than a resident ``D``.
    two_stage: bool = False
    # How the result recycler served this query: "exact", "subsumed", or
    # None when it executed normally.
    result_cache: str | None = None


@dataclass(frozen=True)
class CompiledQuery:
    """The compile-time split of one query; immutable and reusable.

    ``qf_plan`` is stage one (metadata tables only); ``qs_plan`` is stage
    two, reading stage one back through ``ResultScan("qf")`` and still
    scanning the actual-data tables — rule (1) rewrites those per execution
    (:meth:`TwoStageCompiler.plan_stage_two`), never in place.
    """

    qf_plan: algebra.LogicalPlan
    qs_plan: algebra.LogicalPlan
    join_order: tuple[str, ...]
    two_stage: bool

    def listing(self) -> str:
        """The MAL-style program listing every execution follows."""
        return "\n".join(
            [
                f"[00] qf := eval\n{self.qf_plan.pretty(1)}",
                "[01] call runtime-optimizer(qf)",
                f"[02] result := eval\n{self.qs_plan.pretty(1)}",
                "[03] return result",
            ]
        )


def _is_join_block(plan: algebra.LogicalPlan) -> bool:
    if not isinstance(plan, _JOIN_BLOCK_NODES):
        return False
    return all(_is_join_block(child) for child in plan.children())


def _split_upper_chain(
    plan: algebra.LogicalPlan,
) -> tuple[Callable[[algebra.LogicalPlan], algebra.LogicalPlan], algebra.LogicalPlan]:
    """Separate the pipeline operators above the join block.

    Returns ``(rebuild, join_block)`` where ``rebuild(new_block)``
    re-applies the upper operators over a replacement join block.
    """
    spine: list[algebra.LogicalPlan] = []
    node = plan
    while not _is_join_block(node):
        children = node.children()
        if len(children) != 1:
            raise PlanError(
                f"cannot split plan: {type(node).__name__} above the join "
                "block is not unary"
            )
        spine.append(node)
        node = children[0]

    def rebuild(new_block: algebra.LogicalPlan) -> algebra.LogicalPlan:
        current = new_block
        for upper in reversed(spine):
            current = upper.with_children([current])
        return current

    return rebuild, node


def _inferred_time_bounds(
    graph: QueryGraph, config: SommelierConfig, segment_tables: Collection[str]
) -> list[Expression]:
    """Segment-span predicates implied by AD time predicates (R-extra).

    Only inferences onto one of ``segment_tables`` are made, and only
    literal bounds are considered; both orientations (column op literal /
    literal op column) are handled.
    """
    implied: list[Expression] = []
    for inference in config.time_inference:
        target_table = inference.segment_start_column.split(".", 1)[0]
        ad_table = inference.ad_time_column.split(".", 1)[0]
        if target_table not in segment_tables or ad_table not in graph.vertices:
            continue
        for predicate in graph.vertices[ad_table].predicates:
            for column, op, literal in oriented_bound_conjuncts(predicate):
                if column == inference.ad_time_column:
                    bound = inference.infer(op, literal)
                    if bound is not None:
                        implied.append(bound)
    return implied


class TwoStageCompiler:
    """Compile-time optimizer and driver of two-stage execution."""

    def __init__(
        self,
        database: Database,
        config: SommelierConfig,
        options: TwoStageOptions | None = None,
    ) -> None:
        self.database = database
        self.config = config
        self.options = options if options is not None else TwoStageOptions()

    # -- compilation -----------------------------------------------------------

    def compile(self, plan: algebra.LogicalPlan) -> CompiledQuery:
        """Split a bound plan into stage one and stage two.

        Splits off the upper chain, colors the join graph and orders the
        joins with R1–R4, then cuts the ordered plan at its metadata
        branch.  The "usual compile-time optimizations (e.g. pushing down
        selections and projections)" of Section III need no pass of their
        own: the query graph puts every conjunct of the join block on its
        vertex or edge, so the leaf plans of :func:`order_joins` carry the
        pushed-down selections, and :func:`execute_plan` passes each
        operator's needed columns down, which pushes projections down.
        Conjuncts over literals only are not folded; they land on a
        vertex like any other conjunct.
        """
        rebuild, join_block = _split_upper_chain(plan)
        graph = build_query_graph(join_block)
        if self.options.infer_time_bounds:
            for bound in _inferred_time_bounds(
                graph, self.config, graph.vertices
            ):
                graph.add_predicate(bound)
        red_tables = self.database.catalog.metadata_table_names()
        colored = ColoredGraph(graph, red_tables)
        ordered = order_joins(
            colored, self.database.table_num_rows, self.options.rules
        )
        if not colored.black_vertices:
            # Metadata-only query (T1/T2/T3): stage one answers everything,
            # but we keep the uniform two-step shape — the runtime optimizer
            # simply finds no actual-data scans to rewrite.
            qf_plan = ordered.plan
            qs_plan = rebuild(
                algebra.ResultScan("qf", qf_plan.schema)
            )
        elif ordered.metadata_branch is None:
            # AD-only query (outside the paper's focus, Section II-B): no
            # metadata branch names the chunks, so stage one gets one of
            # its own and ``Qs`` runs the whole plan.
            qf_plan = self._chunk_branch(graph)
            qs_plan = rebuild(ordered.plan)
        else:
            qf_plan = ordered.metadata_branch
            qs_join = _replace_subtree(
                ordered.plan,
                ordered.metadata_branch,
                algebra.ResultScan("qf", ordered.metadata_branch.schema),
            )
            qs_plan = rebuild(qs_join)
        return CompiledQuery(
            qf_plan=qf_plan,
            qs_plan=qs_plan,
            join_order=tuple(ordered.join_order),
            two_stage=bool(colored.black_vertices),
        )

    def _chunk_branch(self, graph: QueryGraph) -> algebra.LogicalPlan:
        """Stage one for a plan without a metadata branch: ``F.uri`` of
        ``F ⋈ σ(S)``.

        The join and the renaming follow the catalog's foreign keys from
        the actual-data table ``D`` to ``S`` and from ``S`` to ``F``.  σ
        holds the time predicates inferred from ``D``'s literal bounds,
        and every ``D`` conjunct whose columns all lie in ``D``'s key to
        ``S`` (``file_id``, ``segment_no``) or that names no column, with
        the columns renamed onto ``S``.  Every conjunct still runs in
        ``Qs``, so σ only narrows the chunks stage two reads.
        """
        catalog = self.database.catalog
        uri_table = self.config.uri_column.split(".", 1)[0]
        actual = next(
            name for name in self.config.actual_tables if name in graph.vertices
        )
        to_segments, to_files = next(
            (key, segment_key)
            for key in catalog.table(actual).foreign_keys
            for segment_key in catalog.table(key.ref_table).foreign_keys
            if segment_key.ref_table == uri_table
        )
        segment_table = to_segments.ref_table
        renames = {
            f"{actual}.{column}": f"{segment_table}.{ref}"
            for column, ref in zip(to_segments.columns, to_segments.ref_columns)
        }
        sigma = [
            rename_columns(predicate, renames)
            for predicate in graph.vertices[actual].predicates
            if referenced_columns(predicate) <= renames.keys()
        ]
        if self.options.infer_time_bounds:
            sigma += _inferred_time_bounds(graph, self.config, {segment_table})
        segments: algebra.LogicalPlan = algebra.Scan(
            segment_table, self.database.qualified_schema(segment_table)
        )
        if sigma:
            segments = algebra.Select(segments, conjoin(sigma))
        files = algebra.Scan(uri_table, self.database.qualified_schema(uri_table))
        condition = conjoin(
            [
                Comparison(
                    "=", col(f"{segment_table}.{column}"), col(f"{uri_table}.{ref}")
                )
                for column, ref in zip(to_files.columns, to_files.ref_columns)
            ]
        )
        uri = self.config.uri_column
        return algebra.Project(
            algebra.Join(files, segments, condition), [(uri, col(uri))]
        )

    # -- execution ----------------------------------------------------------------

    def plan_stage_two(
        self, compiled: CompiledQuery, ctx: ExecutionContext | None = None
    ) -> tuple[algebra.LogicalPlan, RewriteReport]:
        """Everything between the two stages: stage one, then rule (1).

        Evaluates ``Qf`` into ``ctx.stage_results["qf"]``, marks the stage
        boundary, records the chunks stage one named, and rewrites every
        actual-data scan of ``Qs`` into a planned chunk scan over them.
        Returns the rewritten ``Qs`` and a report new to this call; fetches
        no chunk, so ``repro explain`` stops here — the report carries the
        chunk plans stage two *would* execute (chunks pruned, and the
        predicted serving tier of each chunk to fetch).

        When the actual data is already in ``D`` (an eager preparation put
        it there), rule (1) has nothing to rewrite: ``Qs`` comes back as
        compiled and scans ``D`` itself.
        """
        if ctx is None:
            ctx = ExecutionContext(self.database)
        report = RewriteReport()
        stage_one = execute_plan(compiled.qf_plan, ctx)
        ctx.stage_results["qf"] = stage_one
        report.stage_boundary_perf = time.perf_counter()
        if not compiled.two_stage:
            # Metadata-only query (T1/T2/T3): nothing to rewrite or load.
            return compiled.qs_plan, report
        uris = sorted(set(stage_one.column(self.config.uri_column).to_list()))
        report.required_uris = list(uris)
        if any(
            self.database.table_num_rows(name) > 0
            for name in self.config.actual_tables
        ):
            report.actual_resident = True
            return compiled.qs_plan, report
        rewritten = rewrite_actual_scans(
            compiled.qs_plan,
            self.database,
            self.config,
            uris,
            report,
            io_threads=self.options.io_threads,
            prune_chunks=self.options.prune_chunks,
        )
        ctx.stats.chunks_pruned += len(report.pruned_uris)
        return rewritten, report

    def execute_compiled(
        self, compiled: CompiledQuery, cancel: CancelToken | None = None
    ) -> QueryResult:
        """Run a compiled query (any number of times, on any database).

        ``cancel`` is a cooperative :class:`CancelToken` checked at operator
        entry and chunk boundaries; a serving front end sets it to abort a
        timed-out request mid-stage-two.
        """
        ctx = ExecutionContext(self.database, cancel=cancel)
        started = time.perf_counter()
        rewritten, report = self.plan_stage_two(compiled, ctx)
        result = execute_plan(rewritten, ctx)
        elapsed = time.perf_counter() - started
        stage_one = report.stage_boundary_perf - started
        return QueryResult(
            table=result,
            seconds=elapsed,
            stage_one_seconds=stage_one,
            stage_two_seconds=max(elapsed - stage_one, 0.0),
            stats=ctx.stats,
            rewrite=report,
            chunk_outcomes=ctx.chunk_outcomes,
            join_order=list(compiled.join_order),
            two_stage=compiled.two_stage and not report.actual_resident,
        )


def _replace_subtree(
    plan: algebra.LogicalPlan,
    target: algebra.LogicalPlan,
    replacement: algebra.LogicalPlan,
) -> algebra.LogicalPlan:
    """Rebuild ``plan`` with the (identity-matched) target swapped out."""
    if plan is target:
        return replacement
    return plan.with_children(
        [_replace_subtree(c, target, replacement) for c in plan.children()]
    )
