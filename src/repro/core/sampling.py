"""Approximate query answering over chunk samples (paper Section VIII).

Lazy loading shifts cost from preparation to query time; when a query
selects many chunks "this can lead to unacceptable waiting times ... our
approach can be combined with techniques of approximative query answering
such as sampling" (Future Work).

:class:`ChunkSampler` implements that combination: stage one runs in full
(metadata is cheap and exact), then instead of loading *all* required
chunks, a uniform random subset is loaded and scalar aggregates are
estimated from per-chunk partials:

* ``COUNT``/``SUM`` — Horvitz-Thompson scaled by ``N / n`` (chunks are the
  sampling units); a between-chunk standard error accompanies the estimate;
* ``AVG`` — ratio estimator ``ΣSUM_i / ΣCOUNT_i`` over sampled chunks;
* ``STD`` — from partial sum / sum-of-squares / count;
* ``MIN``/``MAX`` — the sample extremum, flagged as a bound (one-sided
  estimate), not an unbiased value.

Only scalar (non-grouped) aggregate queries are supported — the Query-1
shape the paper's motivation describes.  Each aggregate is decomposed into
partials (SUM/COUNT/SSQ) evaluated per chunk, i.e. classic two-phase
aggregation over the chunk-access access path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..engine import algebra
from ..engine.database import Database
from ..engine.errors import PlanError
from ..engine.physical import ExecutionContext, execute_plan
from .runtime_rewrite import RewriteReport, rewrite_actual_scans
from .schema import SommelierConfig
from .two_stage import CompiledQuery, TwoStageCompiler

__all__ = ["AggregateEstimate", "ApproximateResult", "ChunkSampler"]


@dataclass(frozen=True)
class AggregateEstimate:
    """One estimated aggregate output."""

    name: str
    function: str
    estimate: float
    standard_error: float | None  # None when no error model applies
    is_bound: bool = False  # True for MIN/MAX (one-sided)


@dataclass
class ApproximateResult:
    """Outcome of an approximate query."""

    estimates: list[AggregateEstimate]
    chunks_total: int
    chunks_sampled: int
    sampling_fraction: float
    exact: bool  # True when every required chunk was loaded anyway

    def estimate_by_name(self, name: str) -> AggregateEstimate:
        for estimate in self.estimates:
            if estimate.name == name:
                return estimate
        raise KeyError(name)


@dataclass
class _Partials:
    """Per-chunk partial aggregates for one argument expression."""

    count: float = 0.0
    total: float = 0.0
    total_sq: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf
    per_chunk_sums: list[float] = field(default_factory=list)
    per_chunk_counts: list[float] = field(default_factory=list)


class ChunkSampler:
    """Approximate scalar aggregates by sampling required chunks."""

    def __init__(
        self,
        database: Database,
        config: SommelierConfig,
        compiler: TwoStageCompiler,
        fraction: float = 0.2,
        min_chunks: int = 2,
        seed: int = 20150413,
    ) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ValueError("sampling fraction must be in (0, 1]")
        self.database = database
        self.config = config
        self.compiler = compiler
        self.fraction = fraction
        self.min_chunks = max(min_chunks, 1)
        self._rng = np.random.default_rng(seed)

    # -- public API ------------------------------------------------------------

    def approximate_query(
        self, plan: algebra.LogicalPlan, compiled: CompiledQuery
    ) -> ApproximateResult:
        """Estimate a scalar aggregate query from a sample of its chunks.

        ``plan`` is the bound query and ``compiled`` its two-stage split.
        """
        aggregate, projection = _find_scalar_aggregate(plan)
        ctx = ExecutionContext(self.database)
        # Stage one runs exactly (metadata is cheap).
        _, report = self.compiler.plan_stage_two(compiled, ctx)
        uris = report.required_uris

        sample = self._choose(uris)
        partials = {
            spec.output_name: _Partials() for spec in aggregate.aggregates
        }
        for uri in sample:
            self._accumulate(aggregate, ctx, uri, partials)

        scale = len(uris) / len(sample) if sample else 1.0
        estimates = [
            _estimate(spec, partials[spec.output_name], scale)
            for spec in aggregate.aggregates
        ]
        named = _apply_projection_names(estimates, projection)
        return ApproximateResult(
            estimates=named,
            chunks_total=len(uris),
            chunks_sampled=len(sample),
            sampling_fraction=self.fraction,
            exact=len(sample) == len(uris),
        )

    # -- internals -----------------------------------------------------------------

    def _choose(self, uris: list[str]) -> list[str]:
        if not uris:
            return []
        target = max(self.min_chunks, math.ceil(len(uris) * self.fraction))
        target = min(target, len(uris))
        chosen = self._rng.choice(len(uris), size=target, replace=False)
        return [uris[i] for i in sorted(chosen)]

    def _accumulate(
        self,
        aggregate: algebra.Aggregate,
        ctx: ExecutionContext,
        uri: str,
        partials: dict[str, _Partials],
    ) -> None:
        """Evaluate the pre-aggregation plan for one chunk, fold partials."""
        report = RewriteReport()
        rewritten = rewrite_actual_scans(
            aggregate.child, self.database, self.config, [uri], report
        )
        rows = execute_plan(rewritten, ctx)
        for spec in aggregate.aggregates:
            slot = partials[spec.output_name]
            if spec.argument is None:
                values = np.ones(rows.num_rows)
            else:
                values = np.asarray(
                    spec.argument.evaluate(rows), dtype=np.float64
                )
            count = float(len(values))
            total = float(values.sum()) if len(values) else 0.0
            slot.count += count
            slot.total += total
            slot.total_sq += float((values * values).sum()) if len(values) else 0.0
            if len(values):
                slot.minimum = min(slot.minimum, float(values.min()))
                slot.maximum = max(slot.maximum, float(values.max()))
            slot.per_chunk_sums.append(total)
            slot.per_chunk_counts.append(count)


def _find_scalar_aggregate(
    plan: algebra.LogicalPlan,
) -> tuple[algebra.Aggregate, algebra.Project | None]:
    """Locate the scalar Aggregate node (and the Project above it)."""
    projection: algebra.Project | None = None
    node = plan
    while True:
        if isinstance(node, algebra.Aggregate):
            if node.group_by:
                raise PlanError(
                    "approximate answering supports scalar aggregates only "
                    "(no GROUP BY)"
                )
            return node, projection
        if isinstance(node, algebra.Project):
            projection = node
            node = node.child
            continue
        if isinstance(node, (algebra.Sort, algebra.Limit, algebra.Distinct)):
            node = node.children()[0]
            continue
        raise PlanError(
            "approximate answering requires an aggregate query "
            f"(found {type(node).__name__})"
        )


def _estimate(
    spec: algebra.AggregateSpec, partials: _Partials, scale: float
) -> AggregateEstimate:
    sums = np.asarray(partials.per_chunk_sums, dtype=np.float64)
    n = max(len(sums), 1)
    if spec.function == "COUNT":
        counts = np.asarray(partials.per_chunk_counts, dtype=np.float64)
        estimate = partials.count * scale
        stderr = float(counts.std(ddof=1)) * scale * math.sqrt(n) if n > 1 else None
        return AggregateEstimate(spec.output_name, "COUNT", estimate, stderr)
    if spec.function == "SUM":
        estimate = partials.total * scale
        stderr = float(sums.std(ddof=1)) * scale * math.sqrt(n) if n > 1 else None
        return AggregateEstimate(spec.output_name, "SUM", estimate, stderr)
    if spec.function == "AVG":
        estimate = partials.total / partials.count if partials.count else math.nan
        if n > 1 and partials.count:
            chunk_means = [
                s / c if c else 0.0
                for s, c in zip(partials.per_chunk_sums,
                                partials.per_chunk_counts)
            ]
            stderr = float(np.std(chunk_means, ddof=1)) / math.sqrt(n)
        else:
            stderr = None
        return AggregateEstimate(spec.output_name, "AVG", estimate, stderr)
    if spec.function == "STD":
        if partials.count:
            mean = partials.total / partials.count
            variance = max(partials.total_sq / partials.count - mean * mean, 0.0)
            estimate = math.sqrt(variance)
        else:
            estimate = math.nan
        return AggregateEstimate(spec.output_name, "STD", estimate, None)
    if spec.function in ("MIN", "MAX"):
        value = partials.minimum if spec.function == "MIN" else partials.maximum
        if not math.isfinite(value):
            value = math.nan
        return AggregateEstimate(
            spec.output_name, spec.function, value, None, is_bound=True
        )
    raise PlanError(f"unsupported aggregate {spec.function}")  # pragma: no cover


def _apply_projection_names(
    estimates: list[AggregateEstimate], projection: algebra.Project | None
) -> list[AggregateEstimate]:
    """Map internal aggregate slots back to the SELECT output names.

    Only direct references (``SELECT AVG(x) AS name``) are renamed;
    composite expressions keep the internal name.
    """
    if projection is None:
        return estimates
    from ..engine.expressions import ColumnRef

    renames: dict[str, str] = {}
    for name, expression in projection.outputs:
        if isinstance(expression, ColumnRef):
            renames[expression.name] = name
    return [
        AggregateEstimate(
            renames.get(e.name, e.name),
            e.function,
            e.estimate,
            e.standard_error,
            e.is_bound,
        )
        for e in estimates
    ]
