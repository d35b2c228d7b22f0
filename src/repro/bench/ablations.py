"""The rule-set ablation, beyond the paper's own figures.

The paper argues its rule set is *minimal* ("for each rule there is a
query that requires this rule to avoid loading unnecessary data"); we
disable rules (and the time-bound inference) and count the chunks a
T4/T5 query loads.  The README's "CI" section lists it with the other
paper-claim tests.
"""

from __future__ import annotations

import time

from ..core.coloring import RuleSet
from ..core.two_stage import TwoStageOptions
from ..workloads.queries import QUERY_BUILDERS
from .experiments import ExperimentContext
from .reporting import ReportTable, format_seconds

__all__ = ["run_ablation_rules"]


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
