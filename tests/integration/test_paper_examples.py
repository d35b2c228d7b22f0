"""The paper's verbatim example queries (Figures 2 and 3) end to end."""

import pytest

from repro.workloads import QUERY1, QUERY2, QueryParams, t1_query


class TestQuery1:
    """Figure 2: short-term average at ISK/BHE over a 2-second window."""

    def test_type_is_t4(self, lazy_db):
        from repro.core.query_types import QueryType

        assert lazy_db.query_type(QUERY1) is QueryType.T4

    def test_two_stage_program_shape(self, lazy_db):
        explained = lazy_db.explain(QUERY1)
        assert "two-stage: True" in explained
        assert "runtime-optimizer" in explained
        # Metadata joined before the actual data table.
        assert "join order: F -> S -> D" in explained

    def test_chunk_count_minimal(self, lazy_db):
        """The paper's narrative: only the files of interest are loaded.

        A 2-second window on one station lies inside a single chunk file.
        """
        result = lazy_db.query(QUERY1)
        assert len(result.rewrite.required_uris) == 1

    def test_answer_matches_eager(self, lazy_db, eager_db):
        import math

        lazy_row = lazy_db.query(QUERY1).table.to_dicts()[0]
        eager_row = eager_db.query(QUERY1).table.to_dicts()[0]
        if isinstance(lazy_row["avg_value"], float) and math.isnan(
            lazy_row["avg_value"]
        ):
            assert math.isnan(eager_row["avg_value"])
        else:
            assert lazy_row["avg_value"] == pytest.approx(
                eager_row["avg_value"]
            )


class TestQuery2:
    """Figure 3: waveform data of volatile high-amplitude hours at FIAM."""

    def test_type_is_t5(self, lazy_db):
        from repro.core.query_types import QueryType

        assert lazy_db.query_type(QUERY2) is QueryType.T5

    def test_derivation_triggered(self, lazy_db):
        result, derivation = lazy_db.query_with_derivation(QUERY2)
        assert derivation.applicable
        # The 3-hour window space of the query (one station-channel pair).
        assert derivation.psq_size == 3

    def test_rows_lie_in_queried_hours(self, lazy_db):
        from repro.engine.types import parse_timestamp

        result = lazy_db.query(QUERY2)
        low = parse_timestamp("2010-01-20T23:00:00.000")
        high = parse_timestamp("2010-01-21T02:00:00.000")
        for row in result.table.to_dicts():
            assert low <= row["D.sample_time"] < high

    def test_answer_matches_eager_dmd(self, lazy_db, eager_dmd_db):
        lazy_rows = sorted(map(str, lazy_db.query(QUERY2).table.to_dicts()))
        eager_rows = sorted(
            map(str, eager_dmd_db.query(QUERY2).table.to_dicts())
        )
        assert lazy_rows == eager_rows


# Golden ``explain`` / ``explain_chunks`` text, byte for byte (chunk URIs
# with the repository root replaced by ``<repo>``).
GOLDEN_QUERY1_EXPLAIN = """\
query type: T4
join order: F -> S -> D
two-stage: True
MAL program:
[00] qf := eval
  Join((F.file_id = S.file_id))
    Select(((F.station = 'ISK') AND (F.channel = 'BHE')))
      Scan(F)
    Select((((S.start_time + (S.sample_count * (1000.0 / S.frequency))) \
> 1262348100000) AND (S.start_time < 1262348102000)))
      Scan(S)
[01] call runtime-optimizer(qf)
[02] result := eval
  Project(avg_value=__agg0)
    Aggregate(by=[()]; AVG(D.sample_value)->__agg0)
      Join(((D.file_id = S.file_id) AND (D.segment_no = S.segment_no)))
        ResultScan(qf)
        Select(((D.sample_time > 1262348100000) AND \
(D.sample_time < 1262348102000)))
          Scan(D)
[03] return result"""

GOLDEN_QUERY1_CHUNKS = """\
stage one named 1 candidate chunk(s); 0 pruned by statistics
chunk plan for D: 1 to fetch, 0 pruned
  [00] remote    <repo>/ISK/ISK.BHE.day0000.xseed"""

GOLDEN_T1_EXPLAIN = """\
query type: T1
join order: F -> S
two-stage: False
MAL program:
[00] qf := eval
  Join((F.file_id = S.file_id))
    Select((F.station = 'ISK'))
      Scan(F)
    Scan(S)
[01] call runtime-optimizer(qf)
[02] result := eval
  Project(station=F.station, segments=__agg0, samples=__agg1, \
avg_frequency=__agg2)
    Aggregate(by=[F.station]; COUNT(S.segment_no)->__agg0, \
SUM(S.sample_count)->__agg1, AVG(S.frequency)->__agg2)
      ResultScan(qf)
[03] return result"""

GOLDEN_T1_CHUNKS = """\
stage one named 0 candidate chunk(s); 0 pruned by statistics
metadata-only query: stage two fetches no chunks"""


class TestGoldenExplain:
    """``repro explain`` output is a stable surface: pinned byte for byte."""

    @pytest.mark.parametrize(
        "sql, explain, chunks",
        [
            pytest.param(QUERY1, GOLDEN_QUERY1_EXPLAIN, GOLDEN_QUERY1_CHUNKS,
                         id="query1"),
            pytest.param(t1_query(QueryParams(station="ISK")),
                         GOLDEN_T1_EXPLAIN, GOLDEN_T1_CHUNKS, id="t1"),
        ],
    )
    def test_explain_text_is_pinned(
        self, lazy_db, tiny_repo, sql, explain, chunks
    ):
        assert lazy_db.explain(sql) == explain
        planned = lazy_db.explain_chunks(sql)
        assert planned.replace(tiny_repo[0].root, "<repo>") == chunks
