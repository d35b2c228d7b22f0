"""Ablation benchmark: the join-order rule set.

The paper's minimality claim, beyond its own figures; the README's "CI"
section lists it with the other paper-claim tests.
"""

from conftest import run_once

from repro.bench import run_ablation_rules


def test_ablation_rule_set(benchmark, ctx):
    table = run_once(benchmark, lambda: run_ablation_rules(ctx))
    table.emit("ablation_rules.txt")
    # The minimality claim: disabling time-bound inference makes the T4
    # query require, and load, every chunk of the station instead of the
    # 2-day set.
    rows = {(r[0], r[1]): r for r in table.rows}
    full_t4 = rows[("T4", "full rule set")]
    noinf_t4 = rows[("T4", "no time-bound inference")]
    assert noinf_t4[2] > full_t4[2]
    assert noinf_t4[3] > full_t4[3]
