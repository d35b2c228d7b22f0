"""Stage one decides which chunks header facts allow, for every query.

Time, ``file_id`` and ``segment_no`` live in ``F`` and ``S``; stage one
reads them, and a query over ``D`` alone gets the metadata branch
``F.uri`` of ``F ⋈ σ(S)``.  These tests check the chunks it names against
an oracle read straight from the chunk headers (``read_metadata``), at
the grain of a segment: a window inside an inter-segment gap names no
chunk.
"""

import pytest

from repro.core.loading import prepare
from repro.core.sommelier import SommelierDB
from repro.core.two_stage import TwoStageOptions
from repro.data import SCALE_SMALL, build_or_reuse
from repro.mseed import reader

AD_COUNT = (
    "SELECT COUNT(*) AS n, MIN(D.sample_time) AS first_ts FROM D WHERE {}"
)
DATAVIEW_COUNT = (
    "SELECT COUNT(*) AS n, MIN(D.sample_time) AS first_ts FROM dataview "
    "WHERE {}"
)


@pytest.fixture(scope="module")
def small_repo(repo_base):
    """sf-3 small-scale repository: 48 files."""
    return build_or_reuse(repo_base, 3, SCALE_SMALL)


def header_segments(db) -> dict:
    """``{uri: (file_id, station, [(segment_no, start, end), ...])}`` from
    each registered chunk's headers; ``end`` is exclusive."""
    f_data = db.database.catalog.table("F").data
    chunks = {}
    for uri, file_id, station in zip(
        f_data.column("uri").to_list(),
        f_data.column("file_id").to_list(),
        f_data.column("station").to_list(),
    ):
        segments = [
            (s.segment_no, s.start_time_ms, s.end_time_ms)
            for s in reader.read_metadata(uri).segments
        ]
        chunks[uri] = (file_id, station, segments)
    return chunks


def gaps(chunks: dict) -> list:
    """``(uri, low, high)`` for every inter-segment gap ``[low, high]``."""
    found = []
    for uri, (_, _, segments) in chunks.items():
        for (_, _, end), (_, start, _) in zip(segments, segments[1:]):
            if start > end:
                found.append((uri, end, start - 1))
    return found


def stage_one_uris(db, sql: str) -> list:
    compiled = db.compiler.compile(db.bind(sql))
    _, report = db.compiler.plan_stage_two(compiled)
    return report.required_uris


class TestGapWindows:
    """A window inside a chunk's gap between segments reads nothing."""

    @pytest.mark.parametrize("source", ["ad-only", "dataview", "reopened"])
    def test_gap_window_names_no_chunk(
        self, tiny_repo, eager_db, tmp_path, source
    ):
        workdir = str(tmp_path / "db")
        db, _ = prepare("lazy", tiny_repo[0], workdir=workdir)
        if source == "reopened":
            db.close()
            db = SommelierDB.open(workdir)
        try:
            chunks = header_segments(db)
            windows = gaps(chunks)
            # Every sf-1 test chunk is split with gaps; the test must not
            # pass vacuously.
            assert {uri for uri, _, _ in windows} == set(chunks)
            checked = 0
            for uri, low, high in windows:
                file_id, station, _ = chunks[uri]
                window = f"D.sample_time >= {low} AND D.sample_time <= {high}"
                if source != "dataview":
                    sql = AD_COUNT.format(f"D.file_id = {file_id} AND {window}")
                elif any(
                    start <= high and end > low
                    for _, other_station, segments in chunks.values()
                    if other_station == station
                    for _, start, end in segments
                ):
                    continue  # the station's next chunk covers this gap
                else:
                    sql = DATAVIEW_COUNT.format(
                        f"F.station = '{station}' AND {window}"
                    )
                checked += 1
                result = db.query(sql)
                assert result.rewrite.required_uris == []
                assert result.chunk_outcomes == {}
                assert result.stats.chunks_loaded == 0
                expected = eager_db.query(sql).table.to_dicts()
                assert result.table.to_dicts() == expected
                assert expected[0]["n"] == 0
            assert checked > 0
        finally:
            db.close()


def oracle_cases(chunks: dict) -> list:
    """``(where, keeps(file_id, segment_no, start, end))`` pairs over
    time, ``file_id`` and ``segment_no``: a chunk qualifies when one of
    its segments keeps."""
    (_, (first_id, _, first_segments)), *_ = chunks.items()
    no, start, end = first_segments[-1]
    cases = [
        ("D.sample_time < 0", lambda f, n, s, e: False),
        (f"D.file_id = {first_id}", lambda f, n, s, e: f == first_id),
        ("D.file_id IN (1, 3)", lambda f, n, s, e: f in (1, 3)),
        (
            "D.file_id = 1 OR D.file_id = 2",
            lambda f, n, s, e: f in (1, 2),
        ),
        (f"D.segment_no >= {no}", lambda f, n, s, e: n >= no),
        (
            f"D.segment_no = {no} AND D.sample_time < {start}",
            lambda f, n, s, e: n == no and s < start,
        ),
        (
            f"D.file_id = {first_id} AND D.sample_time >= {end - 1}",
            lambda f, n, s, e: f == first_id and e > end - 1,
        ),
        (f"D.sample_time = {start}", lambda f, n, s, e: s <= start < e),
    ]
    for uri, low, high in gaps(chunks)[:12]:
        cases.append(
            (
                f"D.sample_time >= {low} AND D.sample_time <= {high}",
                lambda f, n, s, e, low=low, high=high: e > low and s <= high,
            )
        )
        cases.append(
            (
                f"{low} > D.sample_time AND D.sample_time >= {low - 60000}",
                lambda f, n, s, e, low=low: s < low and e > low - 60000,
            )
        )
    return cases


class TestAdOnlyChunkSets:
    """What an AD-only query fetches equals the header oracle's chunks."""

    @pytest.mark.parametrize(
        "repo_fixture, chunks", [("tiny_repo", 8), ("small_repo", 48)]
    )
    def test_header_oracle(self, request, repo_fixture, chunks):
        repository, _ = request.getfixturevalue(repo_fixture)
        db, _ = prepare(
            "lazy", repository, options=TwoStageOptions(prune_chunks=False)
        )
        try:
            headers = header_segments(db)
            assert len(headers) == chunks
            for where, keeps in oracle_cases(headers):
                expected = sorted(
                    uri
                    for uri, (file_id, _, segments) in headers.items()
                    if any(keeps(file_id, *segment) for segment in segments)
                )
                result = db.query(AD_COUNT.format(where))
                assert result.rewrite.required_uris == expected, where
                assert sorted(result.chunk_outcomes) == expected, where
        finally:
            db.close()


class TestDifferencesFromHeaderStatistics:
    """Where stage one's chunk set differs from what per-chunk header
    statistics used to fetch; rows are identical either way."""

    def test_segment_predicates_combine_per_segment(self, lazy_db, eager_db):
        """Per-chunk ranges could not see that the one segment with this
        number starts after the bound; stage one tests both conjuncts on
        the same segment, so the chunk is not named."""
        chunks = header_segments(lazy_db)
        file_id, _, segments = next(
            entry for entry in chunks.values() if len(entry[2]) > 1
        )
        no, start, _ = segments[-1]
        sql = AD_COUNT.format(
            f"D.file_id = {file_id} AND D.segment_no = {no} "
            f"AND D.sample_time < {start}"
        )
        result = lazy_db.query(sql)
        assert result.rewrite.required_uris == []
        assert result.table.to_dicts() == eager_db.query(sql).table.to_dicts()

    def test_file_id_list_names_only_those_files(self, lazy_db, eager_db):
        """A header range never read an IN list; stage one copies it
        onto ``S.file_id``."""
        sql = AD_COUNT.format("D.file_id IN (1, 3)")
        result = lazy_db.query(sql)
        f_data = lazy_db.database.catalog.table("F").data
        by_id = dict(
            zip(f_data.column("file_id").to_list(), f_data.column("uri").to_list())
        )
        assert sorted(result.chunk_outcomes) == sorted([by_id[1], by_id[3]])
        assert result.table.to_dicts() == eager_db.query(sql).table.to_dicts()

    def test_strict_bound_at_segment_end_names_the_chunk(
        self, lazy_db, eager_db
    ):
        """``D.sample_time > b`` infers ``segment end > b``, so a segment
        whose exclusive end is ``b + 1`` keeps its chunk although no
        integer timestamp qualifies; the integer header window pruned it."""
        chunks = header_segments(lazy_db)
        uri, low, high = gaps(chunks)[0]
        file_id = chunks[uri][0]
        sql = AD_COUNT.format(
            f"D.file_id = {file_id} AND D.sample_time > {low - 1} "
            f"AND D.sample_time <= {high}"
        )
        assert stage_one_uris(lazy_db, sql) == [uri]
        result = lazy_db.query(sql)
        expected = eager_db.query(sql).table.to_dicts()
        assert result.table.to_dicts() == expected
        assert expected[0]["n"] == 0
