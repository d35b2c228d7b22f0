"""Ablation experiments for the design choices DESIGN.md calls out.

These go beyond the paper's own figures:

* **rule-set ablation** — the paper argues its rule set is *minimal* ("for
  each rule there is a query that requires this rule to avoid loading
  unnecessary data"); we disable rules (and the time-bound inference) and
  count the chunks a T4/T5 query loads.
* **recycler policy ablation** — Section VIII's "smarter caching": LRU vs
  the cost-aware policy under a tight cache budget.
"""

from __future__ import annotations

import time

from ..core.coloring import RuleSet
from ..core.two_stage import TwoStageOptions
from ..workloads.generator import WorkloadSpec, generate_workload
from ..workloads.queries import QUERY_BUILDERS
from .experiments import ExperimentContext
from .reporting import ReportTable, format_seconds

__all__ = ["run_ablation_rules", "run_ablation_recycler"]


def run_ablation_rules(ctx: ExperimentContext) -> ReportTable:
    """Chunks loaded by a T4/T5 query with optimizer features disabled."""
    table = ReportTable(
        f"Ablation — join-order rules & inference "
        f"(profile={ctx.profile.name})",
        ["query", "variant", "chunks required", "chunks loaded", "seconds"],
    )
    sf = ctx.profile.scale_factors[-1]
    params = ctx.query_params(sf, station="FIAM", channel="HHZ")
    variants = [
        ("full rule set", TwoStageOptions()),
        ("no R2 (cross products)", TwoStageOptions(
            rules=RuleSet.disabled("r2"))),
        ("no R4 (black last)", TwoStageOptions(
            rules=RuleSet.disabled("r4"))),
        ("no time-bound inference", TwoStageOptions(
            infer_time_bounds=False)),
    ]
    for query_type in ("T4", "T5"):
        sql = QUERY_BUILDERS[query_type](params)
        for label, options in variants:
            entry = ctx.prepared("lazy", sf, options=options)
            entry.db.drop_caches()
            entry.db.reset_derived_metadata()
            started = time.perf_counter()
            result = entry.db.query(sql)
            elapsed = time.perf_counter() - started
            table.add_row(
                query_type,
                label,
                len(result.rewrite.required_uris),
                result.stats.chunks_loaded,
                format_seconds(elapsed),
            )
    table.add_note(
        "disabling the inference (and, where the graph needs it, R2) must "
        "not change answers but loads more chunks — the minimality claim"
    )
    return table


def run_ablation_recycler(ctx: ExperimentContext) -> ReportTable:
    """LRU vs cost-aware recycler under a tight budget (Section VIII)."""
    table = ReportTable(
        f"Ablation — recycler replacement policy "
        f"(profile={ctx.profile.name}, FIAM dataset)",
        ["policy", "budget", "chunk loads", "cache hits", "seconds"],
    )
    sf = ctx.profile.fig9_scale_factors[-1]
    span = ctx.span(sf)
    spec = WorkloadSpec(
        query_type="T4",
        num_queries=min(ctx.profile.fig9_num_queries),
        query_selectivity=0.05,
        workload_selectivity=0.3,
        seed=7,
    )
    queries = generate_workload(spec, span)
    repository, _ = ctx.repository(sf, fiam_only=True)
    # Budget sized to hold only a handful of decoded chunks.
    sample_entry = ctx.prepared("lazy", sf, fiam_only=True)
    chunk_bytes = max(
        sample_entry.report.repo_bytes
        // max(sample_entry.report.num_files, 1),
        1,
    ) * 40  # decoded rows are ~an order of magnitude larger than a chunk
    budget = chunk_bytes * 3
    from ..core.loading import prepare

    for policy in ("lru", "cost_aware"):
        db, _ = prepare("lazy", repository, recycler_bytes=budget)
        db.database.recycler.policy = policy
        # This ablation compares replacement policies by how often they
        # force a re-decode; spilling evictions to the disk tier would
        # turn every re-decode into a cheap re-hydrate and erase the
        # difference being measured.
        db.database.recycler.spill_on_evict = False
        started = time.perf_counter()
        loads = 0
        for sql in queries:
            loads += db.query(sql).stats.chunks_loaded
        elapsed = time.perf_counter() - started
        table.add_row(
            policy,
            budget,
            loads,
            db.database.recycler.stats.hits,
            format_seconds(elapsed),
        )
        db.close()
    return table
