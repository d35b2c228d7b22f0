"""Stage two reads only the columns the query uses.

The metadata⋈data join of a lazy T4 gathers the one data column the
aggregate reads, not every column of F, S and D; the chunk scan below it
emits the join keys and that column, never the hidden rowid.  A chunk
itself, from any tier, is the loader's columns and nothing else.
"""

import pytest

from repro.core.loading import prepare
from repro.data.ingv import EPOCH_2010_MS
from repro.engine.column import Column
from repro.workloads import QueryParams, t4_query

MILLIS_PER_DAY = 24 * 3600 * 1000
PARAMS = QueryParams(
    station="FIAM",
    channel="HHZ",
    start_ms=EPOCH_2010_MS,
    end_ms=EPOCH_2010_MS + 2 * MILLIS_PER_DAY,
)
WINDOW = (
    "F.station = 'FIAM' AND D.sample_time >= '2010-01-01T00:00:00.000' "
    "AND D.sample_time < '2010-01-01T12:00:00.000'"
)


@pytest.fixture()
def lazy(tiny_repo):
    db, _ = prepare("lazy", tiny_repo[0])
    yield db
    db.close()


def test_t4_chunk_scan_emits_only_the_needed_columns(lazy, monkeypatch):
    database = lazy.database
    emitted = []
    scan_once = database.scan_once

    def spy(key, scan, poll):
        table, shared = scan_once(key, scan, poll)
        emitted.append(table.schema.names)
        return table, shared

    monkeypatch.setattr(database, "scan_once", spy)
    lazy.query(t4_query(PARAMS))
    assert emitted == [("D.file_id", "D.segment_no", "D.sample_value")]


def test_a_chunk_is_the_loaders_columns_from_every_tier(lazy):
    database = lazy.database
    uri = sorted(database.chunk_loader.file_ids)[0]
    loader_columns = [
        f"D.{name}" for name in database.catalog.table("D").schema.names
    ]
    assert len(loader_columns) == 4
    shapes = {}
    for _ in range(2):  # loaded, then a memory-tier hit
        chunk, outcome = database.fetch_chunk(uri, "D")
        shapes[outcome] = list(chunk.schema.names)
    database.recycler.flush_to_store()
    database.recycler.clear(spilled=False)
    chunk, outcome = database.fetch_chunk(uri, "D")
    shapes[outcome] = list(chunk.schema.names)
    assert shapes == {
        "loaded": loader_columns,
        "hit": loader_columns,
        "rehydrated": loader_columns,
    }


def test_t4_data_join_gathers_only_the_read_column(lazy, monkeypatch):
    sql = t4_query(PARAMS)
    lazy.query(sql)  # warm: stage two below reads resident chunks
    gathers = []
    take = Column.take

    def spy(self, indices):
        gathers.append(len(indices))
        return take(self, indices)

    monkeypatch.setattr(Column, "take", spy)
    result = lazy.query(sql)
    monkeypatch.undo()
    joined = result.table.to_dicts()[0]["n_samples"]
    assert joined > 0
    # The D join's output has one row per joined sample; only the column
    # AVG/COUNT read is gathered at that length.
    assert gathers.count(joined) == 1


def test_count_star_counts_every_joined_row(lazy, tiny_repo):
    star = lazy.query(f"SELECT COUNT(*) AS n FROM dataview WHERE {WINDOW}")
    counted = lazy.query(
        f"SELECT COUNT(D.sample_value) AS n FROM dataview WHERE {WINDOW}"
    )
    eager, _ = prepare("eager_plain", tiny_repo[0])
    try:
        expected = eager.query(
            f"SELECT COUNT(*) AS n FROM dataview WHERE {WINDOW}"
        ).table.to_dicts()
    finally:
        eager.close()
    assert star.table.to_dicts() == counted.table.to_dicts() == expected
    assert expected[0]["n"] > 0
