"""Tests for the two-stage execution model and the run-time rewrite."""

import dataclasses
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.loading import prepare
from repro.core.two_stage import TwoStageOptions
from repro.engine import algebra
from repro.engine.chunk_planner import TIER_RESIDENT
from repro.workloads import (
    QUERY1,
    QUERY2,
    QUERY_BUILDERS,
    QueryParams,
    t1_query,
    t4_query,
)

MILLIS_PER_DAY = 24 * 3600 * 1000


def t4(two_day_range, station="ISK", channel="BHE"):
    start, end = two_day_range
    return t4_query(
        QueryParams(station=station, channel=channel, start_ms=start, end_ms=end)
    )


class TestOptions:
    @pytest.mark.parametrize("threads", [0, -3])
    def test_io_threads_below_one_rejected(self, threads):
        with pytest.raises(ValueError, match="io_threads"):
            TwoStageOptions(io_threads=threads)


class TestCompilation:
    def test_program_shape(self, lazy_db, two_day_range):
        compiled = lazy_db.compiler.compile(lazy_db.bind(t4(two_day_range)))
        steps = [
            line for line in compiled.listing().splitlines()
            if line.startswith("[")
        ]
        assert steps == [
            "[00] qf := eval",
            "[01] call runtime-optimizer(qf)",
            "[02] result := eval",
            "[03] return result",
        ]

    def test_qf_leaves_are_metadata_only(self, lazy_db, two_day_range):
        compiled = lazy_db.compiler.compile(lazy_db.bind(t4(two_day_range)))
        reds = lazy_db.database.catalog.metadata_table_names()
        assert compiled.qf_plan.base_tables() <= reds

    def test_qs_references_result_scan(self, lazy_db, two_day_range):
        compiled = lazy_db.compiler.compile(lazy_db.bind(t4(two_day_range)))

        def has_result_scan(node):
            if isinstance(node, algebra.ResultScan):
                return True
            return any(has_result_scan(c) for c in node.children())

        assert has_result_scan(compiled.qs_plan)

    def test_time_bounds_inferred_onto_segments(self, lazy_db, two_day_range):
        compiled = lazy_db.compiler.compile(lazy_db.bind(t4(two_day_range)))
        rendered = compiled.qf_plan.pretty()
        assert "S.start_time" in rendered
        assert "S.sample_count" in rendered  # the computed segment end

    def test_inference_can_be_disabled(self, lazy_db, two_day_range):
        options = TwoStageOptions(infer_time_bounds=False)
        from repro.core.two_stage import TwoStageCompiler

        compiler = TwoStageCompiler(
            lazy_db.database, lazy_db.config, options
        )
        compiled = compiler.compile(lazy_db.bind(t4(two_day_range)))
        assert "S.sample_count *" not in compiled.qf_plan.pretty()

    def test_metadata_only_query_single_effective_stage(self, lazy_db):
        sql = t1_query(QueryParams(station="ISK"))
        compiled = lazy_db.compiler.compile(lazy_db.bind(sql))
        assert not compiled.two_stage


class TestStageOneNeed:
    """``CompiledQuery.qf_needed``: the columns stage one produces."""

    def need(self, db, sql):
        return db.compiler.compile(db.bind(sql)).qf_needed

    def test_select_star_needs_every_column(self, lazy_db):
        sql = "SELECT * FROM gmdview WHERE F.station = 'ISK'"
        assert self.need(lazy_db, sql) is None
        assert "stage one reads: all columns" in lazy_db.explain(sql)

    def test_distinct_above_the_join_needs_every_column(self, lazy_db):
        # SQL puts the select list's projection under a DISTINCT, which
        # bounds the need; right above the join, DISTINCT compares whole
        # rows.
        sql = "SELECT DISTINCT F.station FROM gmdview WHERE F.station = 'ISK'"
        assert self.need(lazy_db, sql) == {"F.station"}
        projection = lazy_db.bind(sql).child
        distinct = algebra.Distinct(projection.child)
        assert lazy_db.compiler.compile(distinct).qf_needed is None

    def test_ad_only_chunk_branch_needs_the_uri(self, lazy_db):
        sql = count_d("D.sample_time < '2010-01-01T06:00:00.000'")
        assert self.need(lazy_db, sql) == {lazy_db.config.uri_column}

    def test_two_stage_need_includes_the_uri(self, lazy_db):
        sql = count_d("F.station = 'ISK'", "dataview")
        compiled = lazy_db.compiler.compile(lazy_db.bind(sql))
        uri = lazy_db.config.uri_column
        assert uri not in compiled.qs_plan.pretty()
        assert compiled.qf_needed == {uri, "S.file_id", "S.segment_no"}
        assert (
            f"stage one reads: {uri}, S.file_id, S.segment_no"
            in lazy_db.explain(sql)
        )

    def test_plan_cache_hit_reuses_the_compiled_need(
        self, lazy_db, monkeypatch
    ):
        compiler = lazy_db.compiler
        compiled, executed = [], []
        compile_, execute = compiler.compile, compiler.execute_compiled

        def compiling(plan):
            compiled.append(compile_(plan))
            return compiled[-1]

        def executing(query, cancel=None):
            executed.append(query)
            return execute(query, cancel)

        monkeypatch.setattr(compiler, "compile", compiling)
        monkeypatch.setattr(compiler, "execute_compiled", executing)
        sql = count_d("F.station = 'ISK'", "dataview")
        lazy_db.query(sql)
        lazy_db.query(sql)
        assert len(compiled) == 1
        assert executed[0] is executed[1] is compiled[0]

    @pytest.mark.parametrize(
        "name", [*QUERY_BUILDERS, "QUERY1", "QUERY2"]
    )
    def test_rows_bit_identical_to_eager_dmd(
        self, lazy_db, eager_dmd_db, two_day_range, name
    ):
        start, end = two_day_range
        params = QueryParams(
            station="FIAM", channel="HHZ", start_ms=start, end_ms=end
        )
        queries = {"QUERY1": QUERY1, "QUERY2": QUERY2}
        sql = queries[name] if name in queries else QUERY_BUILDERS[name](params)
        lazy = lazy_db.query(sql).table
        eager = eager_dmd_db.query(sql).table
        assert lazy.schema.names == eager.schema.names
        # repr: NaN aggregates compare equal, floats bit for bit.
        assert repr(list(lazy.rows())) == repr(list(eager.rows()))


class TestCompiledQueryReuse:
    """A compiled query is immutable: every execution re-runs both stages."""

    SQL = "SELECT COUNT(*) AS n FROM dataview WHERE F.station = 'ISK'"

    def test_rerun_after_metadata_write_matches_fresh_query(self, lazy_db):
        database = lazy_db.database
        files = database.catalog.table("F").data
        isk = [
            file_id
            for file_id, station in zip(
                files.column("file_id").to_list(),
                files.column("station").to_list(),
            )
            if station == "ISK"
        ]
        assert len(isk) > 1
        segments = database.catalog.table("S").data
        keep = segments.column("file_id").values != isk[0]
        database.replace("S", segments.filter(np.asarray(keep)))
        compiled = lazy_db.compiler.compile(lazy_db.bind(self.SQL))
        first = lazy_db.compiler.execute_compiled(compiled)

        database.replace("S", segments)
        again = lazy_db.compiler.execute_compiled(compiled)
        fresh = lazy_db.query(self.SQL)
        assert again.table.to_dicts() == fresh.table.to_dicts()
        assert first.table.to_dicts()[0]["n"] < fresh.table.to_dicts()[0]["n"]
        assert again.rewrite is not first.rewrite
        assert again.rewrite.required_uris == fresh.rewrite.required_uris

    def test_shared_across_threads_matches_serial(self, lazy_db, two_day_range):
        compiler = lazy_db.compiler
        compiled = compiler.compile(lazy_db.bind(t4(two_day_range)))
        serial = compiler.execute_compiled(compiled).table.to_dicts()
        lazy_db.database.recycler.clear()
        with ThreadPoolExecutor(max_workers=4) as pool:
            runs = list(
                pool.map(
                    lambda _: compiler.execute_compiled(compiled),
                    range(4),
                )
            )
        assert all(run.table.to_dicts() == serial for run in runs)

    def test_compiled_query_is_frozen(self, lazy_db, two_day_range):
        compiled = lazy_db.compiler.compile(lazy_db.bind(t4(two_day_range)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            compiled.qs_plan = compiled.qf_plan


class TestLazyExecution:
    def test_loads_only_needed_chunks(self, lazy_db, day_range):
        result = lazy_db.query(t4(day_range))
        # 1 station-day at test scale = exactly one chunk file.
        assert len(result.rewrite.required_uris) == 1
        assert result.stats.chunks_loaded == 1

    def test_second_run_hits_recycler(self, lazy_db, day_range):
        lazy_db.query(t4(day_range))
        result = lazy_db.query(t4(day_range))
        assert result.stats.chunks_loaded == 0
        (plan,) = result.rewrite.chunk_plans
        assert [chunk.tier for chunk in plan.chunks] == [TIER_RESIDENT]

    def test_other_station_loads_other_chunks(self, lazy_db, day_range):
        first = lazy_db.query(t4(day_range, station="ISK", channel="BHE"))
        second = lazy_db.query(t4(day_range, station="FIAM", channel="HHZ"))
        assert set(first.rewrite.required_uris).isdisjoint(
            second.rewrite.required_uris
        )

    def test_no_matching_metadata_loads_nothing(self, lazy_db, day_range):
        result = lazy_db.query(t4(day_range, station="NOPE", channel="X"))
        assert result.stats.chunks_loaded == 0
        assert result.table.to_dicts()[0]["n_samples"] == 0

    def test_d_table_stays_empty(self, lazy_db, day_range):
        lazy_db.query(t4(day_range))
        assert lazy_db.database.catalog.table("D").num_rows == 0

    def test_stage_times_recorded(self, lazy_db, day_range):
        result = lazy_db.query(t4(day_range))
        assert result.two_stage
        assert result.stage_one_seconds > 0
        assert result.stage_two_seconds > 0
        assert result.seconds >= result.stage_one_seconds

    def test_matches_eager_answer(self, lazy_db, eager_db, day_range):
        lazy_answer = lazy_db.query(t4(day_range)).table.to_dicts()
        eager_answer = eager_db.query(t4(day_range)).table.to_dicts()
        assert lazy_answer == eager_answer

    def test_parallel_loading_instruction(self, tiny_repo, two_day_range):
        from repro.core.loading import prepare

        db, _ = prepare(
            "lazy",
            tiny_repo[0],
            options=TwoStageOptions(io_threads=4),
        )
        start, end = two_day_range
        sql = t4_query(
            QueryParams(station="ISK", channel="BHE", start_ms=start, end_ms=end)
        )
        result = db.query(sql)
        assert result.stats.chunks_loaded == 2
        db.close()

    def test_serial_loading_option(self, tiny_repo, two_day_range):
        from repro.core.loading import prepare

        db, _ = prepare(
            "lazy",
            tiny_repo[0],
            options=TwoStageOptions(io_threads=1),
        )
        start, end = two_day_range
        sql = t4_query(
            QueryParams(station="ISK", channel="BHE", start_ms=start, end_ms=end)
        )
        assert db.query(sql).stats.chunks_loaded == 2
        db.close()


class TestSelectionPushdownIntoChunks:
    def test_cache_holds_unfiltered_chunk(self, lazy_db, day_range):
        start, _ = day_range
        narrow = t4_query(
            QueryParams(
                station="ISK",
                channel="BHE",
                start_ms=start,
                end_ms=start + MILLIS_PER_DAY // 4,
            )
        )
        wide = t4_query(
            QueryParams(
                station="ISK",
                channel="BHE",
                start_ms=start,
                end_ms=start + MILLIS_PER_DAY,
            )
        )
        first = lazy_db.query(narrow)
        second = lazy_db.query(wide)
        # Same single chunk; the second query must still see all its rows.
        assert second.stats.chunks_loaded == 0
        assert (
            second.table.to_dicts()[0]["n_samples"]
            > first.table.to_dicts()[0]["n_samples"]
        )


def count_d(where: str, source: str = "D") -> str:
    return f"SELECT COUNT(D.sample_value) AS n FROM {source} WHERE {where}"


# (query, an equivalent query without the constant or repeated conjunct;
# None when the answer counts no rows at all).
UNFOLDED = {
    "d-true": (count_d("1 = 1"), "SELECT COUNT(D.sample_value) AS n FROM D"),
    "d-false": (count_d("1 = 2"), None),
    "d-value-and-false": (count_d("D.sample_value > 0 AND 1 = 2"), None),
    "d-value-and-true": (
        count_d("D.sample_value > 0 AND 1 = 1"),
        count_d("D.sample_value > 0"),
    ),
    "dataview-false-or-station": (
        count_d("1 = 2 OR F.station = 'ISK'", "dataview"),
        count_d("F.station = 'ISK'", "dataview"),
    ),
    "f-string-true": (
        "SELECT COUNT(F.station) AS n FROM F WHERE 'a' = 'a'",
        "SELECT COUNT(F.station) AS n FROM F",
    ),
    "dataview-repeated-conjunct": (
        count_d("F.station = 'ISK' AND F.station = 'ISK'", "dataview"),
        count_d("F.station = 'ISK'", "dataview"),
    ),
}


class TestUnfoldedConstants:
    """Literal-only and repeated conjuncts are placed, not folded."""

    @pytest.mark.parametrize("case", list(UNFOLDED))
    def test_lazy_matches_eager_and_expected(self, lazy_db, eager_db, case):
        sql, equivalent = UNFOLDED[case]
        lazy = lazy_db.query(sql).table.to_dicts()
        eager = eager_db.query(sql).table.to_dicts()
        if equivalent is None:
            expected = [{"n": 0}]
        else:
            expected = eager_db.query(equivalent).table.to_dicts()
            assert expected[0]["n"] > 0
        assert lazy == eager == expected

    @pytest.mark.parametrize(
        "case, constant",
        [("d-true", "(1 = 1)"), ("d-false", "(1 = 2)"),
         ("d-value-and-true", "(1 = 1)")],
    )
    def test_constant_reaches_the_pushed_predicate(
        self, lazy_db, case, constant
    ):
        sql, _ = UNFOLDED[case]
        compiled = lazy_db.compiler.compile(lazy_db.bind(sql))
        rewritten, _ = lazy_db.compiler.plan_stage_two(compiled)
        stack, scans = [rewritten], []
        while stack:
            node = stack.pop()
            if isinstance(node, algebra.ParallelChunkScan):
                scans.append(node)
            stack.extend(node.children())
        (scan,) = scans
        assert constant in repr(scan.pushed_predicate)

    @pytest.mark.parametrize("case", ["d-false", "d-value-and-false"])
    @pytest.mark.parametrize("warm", [False, True])
    def test_false_constant_fetches_no_chunk(
        self, lazy_db, eager_db, case, warm
    ):
        sql, _ = UNFOLDED[case]
        if warm:
            lazy_db.query("SELECT COUNT(D.sample_value) AS n FROM D")
        result = lazy_db.query(sql)
        assert result.chunk_outcomes == {}
        assert result.stats.chunks_loaded == 0
        # Stage one carries the constant and names no chunk.
        assert result.rewrite.required_uris == []
        assert [plan.uris for plan in result.rewrite.chunk_plans] == [()]
        assert result.table.to_dicts() == eager_db.query(sql).table.to_dicts()

    def test_false_constant_under_or_still_plans(self, lazy_db):
        sql, _ = UNFOLDED["dataview-false-or-station"]
        result = lazy_db.query(sql)
        (plan,) = result.rewrite.chunk_plans
        assert plan.pruned == ()
        assert len(plan.chunks) == len(result.rewrite.required_uris) > 0


class TestEagerExecution:
    def test_single_stage_no_rewrite(self, eager_db, day_range):
        result = eager_db.query(t4(day_range))
        assert not result.two_stage
        assert result.stats.chunks_loaded == 0

    def test_join_order_still_metadata_first(self, eager_db, day_range):
        result = eager_db.query(t4(day_range))
        assert result.join_order.index("D") == len(result.join_order) - 1

    def test_stage_one_names_chunks_but_none_are_planned(
        self, eager_db, day_range
    ):
        result = eager_db.query(t4(day_range))
        assert result.rewrite.actual_resident
        assert result.rewrite.required_uris
        assert result.rewrite.chunk_plans == []
        assert result.stage_one_seconds > 0 and result.stage_two_seconds > 0

    def test_no_chunk_machinery_runs(self, tiny_repo, two_day_range):
        """Recycler, planner and prefetcher stay idle over T1-T5."""
        db, _ = prepare(
            "eager_plain", tiny_repo[0], options=TwoStageOptions(prefetch=True)
        )
        start, end = two_day_range
        params = QueryParams(
            station="FIAM", channel="HHZ", start_ms=start, end_ms=end
        )
        for build in QUERY_BUILDERS.values():
            db.query(build(params))
        db.prefetcher.wait_idle()
        memory = db.database.recycler.tier_stats()["memory"]
        assert (memory["hits"], memory["misses"], memory["insertions"]) == (
            0, 0, 0
        )
        assert db.database.chunk_planner.stats_snapshot()["plans_built"] == 0
        assert db.prefetcher.stats_snapshot()["issued"] == 0
        assert db.stats.chunks_loaded_total == 0
        db.close()

    def test_explain_chunks_reports_resident_data(self, eager_db, day_range):
        text = eager_db.explain_chunks(t4(day_range))
        assert "actual data is in D" in text
