"""Tier-1 tests of the layer ledger (smoke-sized: tiny fixture, few ops)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

from layers import LAYER_METRICS  # noqa: E402
from measure import percentile, spread_summary  # noqa: E402
from spans import Span, SpanRecorder, covered, self_time  # noqa: E402
from workloads import WORKLOADS, build_plan  # noqa: E402

RUN = os.path.join(HERE, "run.py")
LEDGER_DAYS = 18


def _contract() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


# -- the seeded generator -------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_operations_other_seed_others(name):
    def listing(seed):
        plan = build_plan(name, seed, LEDGER_DAYS)
        return [plan.warmup] + [c.first(300) for c in plan.clients]

    assert listing(7) == listing(7)
    assert listing(7) != listing(8)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_cycle_holds_the_exact_mix(name):
    spec = WORKLOADS[name]
    for client in build_plan(name, 3, LEDGER_DAYS).clients:
        kinds = [op.kind if op else "derive" for op in client.cycle]
        assert {k: kinds.count(k) for k in set(kinds)} == dict(spec.mix)


def test_derive_windows_are_never_handed_out_twice():
    plan = build_plan("served_mix", 5, LEDGER_DAYS)
    derive = [op.sql for client in plan.clients for op in client.derive]
    assert len(derive) == len(set(derive)) == 4 * LEDGER_DAYS * 6
    # A client stops when its supply is exhausted instead of re-deriving.
    slots_per_cycle = dict(WORKLOADS["served_mix"].mix)["derive"]
    client = plan.clients[0]
    cycles = len(client.derive) // slots_per_cycle
    everything = client.first(10 ** 6)
    assert len(everything) < (cycles + 1) * len(client.cycle)
    assert sum(op.kind.endswith("_derive") for op in everything) == len(
        client.derive
    )


# -- order statistics -----------------------------------------------------------


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    values = [float(i) for i in range(1, 201)]
    assert percentile(values, 0.95) == 190.0  # ten beyond: accepted
    with pytest.raises(ValueError, match="beyond"):
        percentile(values[:-1], 0.95)
    with pytest.raises(ValueError, match="beyond"):
        percentile(values[:19], 0.50)
    assert percentile(values[:20], 0.50) == 10.0
    assert percentile([3.0, 1.0, 2.0], 0.50, min_beyond=0) == 2.0


def test_spread_summary_labels_a_metric_wider_than_its_bound():
    steady = spread_summary([100.0, 101.0, 99.0, 100.5], bound=0.10)
    assert steady["label"] == "steady" and steady["spread"] < 0.10
    wide = spread_summary([100.0, 140.0, 70.0, 120.0], bound=0.10)
    assert wide["label"] == "unresolved"
    assert wide["spread_over_bound"] > 1.0


# -- spans ----------------------------------------------------------------------


def test_self_time_counts_overlapping_children_once_and_clips():
    parent = Span(0, "stage_two", 10.0, 20.0, None, 0)
    loads = [
        Span(1, "chunk_load", 11.0, 14.0, 0, 0),
        Span(2, "chunk_load", 13.0, 15.0, 0, 0),  # overlaps the first
        Span(3, "chunk_load", 19.0, 23.0, 0, 0),  # reaches past the parent
        Span(4, "chunk_load", 5.0, 9.0, 0, 0),    # wholly outside
    ]
    assert covered(10.0, 20.0, [(s.start, s.end) for s in loads]) == 5.0
    assert self_time(parent, loads) == 5.0
    assert self_time(parent, []) == 10.0


def test_recorder_links_children_to_parents_by_id(tmp_path):
    recorder = SpanRecorder()
    with recorder.span("op:t1", None, 4) as root:
        with recorder.span("bind", root.id, 4) as bind:
            pass
    assert recorder.children_of()[root.id] == [bind]
    assert root.start <= bind.start <= bind.end <= root.end
    path = tmp_path / "trace.json"
    recorder.write(str(path), workload="x")
    document = json.loads(path.read_text())
    assert [s["name"] for s in document["spans"]] == ["op:t1", "bind"]
    assert document["spans"][1]["parent"] == document["spans"][0]["id"]


# -- the contract ---------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    contract = _contract()
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert contract["paths"] == ["benchmarks/ledger"]
    assert contract["workloads"] == [
        {"name": spec.name, "why": spec.why} for spec in WORKLOADS.values()
    ]
    assert contract["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in LAYER_METRICS
    ]
    assert [m["name"] for m in contract["end_to_end"]] == [
        "setup_s", "latency_p50_ms", "latency_p95_ms", "throughput_qps",
    ]
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in contract["workloads"])


def test_smoke_suite_prints_every_named_metric_and_nothing_else(tmp_path):
    contract = _contract()
    done = subprocess.run(
        [sys.executable, RUN, "--smoke", "--traced", "--seed", "11",
         "--data-dir", str(tmp_path / "data"),
         "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    ledger = json.loads((tmp_path / "out" / "ledger.json").read_text())
    named = {
        False: {m["name"]: m["unit"] for m in contract["end_to_end"]},
        True: {m["name"]: m["unit"] for m in contract["per_layer"]},
    }
    for workload in (w["name"] for w in contract["workloads"]):
        for traced in (False, True):
            rows = [r for r in ledger["rows"]
                    if r["workload"] == workload and r["traced"] == traced]
            assert {r["metric"]: r["unit"] for r in rows} == named[traced]
            assert all(r["failed"] == 0 and r["attempted"] >= 1 for r in rows)
            assert all(r["host"]["cpu_count"] for r in rows)
        trace = json.loads(
            (tmp_path / "out" / f"trace_{workload}.json").read_text()
        )
        names = {s["name"] for s in trace["spans"]}
        assert {"bind", "compile", "query", "stage_one", "chunk_load"} <= names
    values = {(r["workload"], r["metric"]): r["value"]
              for r in ledger["rows"]}
    assert values["cold_scan", "recycler_hit_ratio"] == 0
    assert values["warm_point", "recycler_hit_ratio"] == 1
    assert values["warm_point", "chunk_loads"] == 0
    assert values["served_mix", "windows_inserted"] > 0
    assert values["served_mix", "serving_admitted"] > 0
    assert {s["name"] for s in trace["spans"]} >= {"wire_round_trip"}


def test_contract_form_ends_with_exactly_the_result_object(tmp_path):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", "warm_point", "--seed", "3",
         "--seconds", "1", "--trace", "0", "--smoke",
         "--data-dir", str(tmp_path / "data"),
         "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())


def test_without_the_engine_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("data", "out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "cold_scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
