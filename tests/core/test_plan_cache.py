"""Compiled-plan cache: repeats skip bind and compile, writes invalidate.

Every case checks its rows against cold serial execution — a fresh
database with ``io_threads=1`` that answers the text once — so a hit can
never return what a fresh ``bind`` + ``compile`` would not.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.loading import prepare
from repro.core.plan_cache import PLAN_CACHE_ENTRIES
from repro.core.two_stage import TwoStageOptions
from repro.data.ingv import EPOCH_2010_MS
from repro.engine.catalog import TableKind
from repro.engine.errors import BindError, ParseError
from repro.engine.table import Schema, Table
from repro.engine.types import FLOAT64, INT64, STRING, format_timestamp
from repro.workloads import QueryParams, t1_query, t4_query

HOUR_MS = 3600 * 1000
T1 = t1_query(QueryParams(station="ISK"))
T4 = t4_query(
    QueryParams(start_ms=EPOCH_2010_MS, end_ms=EPOCH_2010_MS + 6 * HOUR_MS)
)


def windows_sql(first_hour: int, last_hour: int) -> str:
    """A T3 over H with no station predicate: its join order follows |H|."""
    lo = format_timestamp(EPOCH_2010_MS + first_hour * HOUR_MS)
    hi = format_timestamp(EPOCH_2010_MS + last_hour * HOUR_MS)
    return (
        "SELECT H.window_start_ts AS w, MAX(H.window_max_val) AS top, "
        "COUNT(S.segment_no) AS segments FROM windowmetaview "
        f"WHERE H.window_start_ts >= '{lo}' AND H.window_start_ts < '{hi}' "
        "GROUP BY H.window_start_ts ORDER BY w"
    )


def cold_serial(tiny_repo, sql, approach="lazy", setup=None):
    """``sql`` answered once by a fresh serial database (after ``setup``)."""
    db, _ = prepare(
        approach, tiny_repo[0], options=TwoStageOptions(io_threads=1)
    )
    try:
        if setup is not None:
            setup(db)
        return db.query(sql).table.to_dicts()
    finally:
        db.close()


def counts(db) -> dict:
    return db.counters_snapshot()["plan_cache"]


def fresh_join_order(db, sql) -> tuple:
    return db.compiler.compile(db.bind(sql)).join_order


def append_one_segment(db) -> None:
    """A write to S, as a concurrent registration would make."""
    segments = db.database.catalog.table("S")
    segments.append(segments.data.slice(0, 1))


class TestHits:
    def test_repeat_is_a_hit_with_identical_rows(self, lazy_db, tiny_repo):
        expected = cold_serial(tiny_repo, T4)
        first = lazy_db.query(T4)
        again = lazy_db.query(T4)
        assert first.table.to_dicts() == again.table.to_dicts() == expected
        assert counts(lazy_db) == {
            "lookups": 2, "hits": 1, "misses": 1, "invalidations": 0,
            "evictions": 0, "entries": 1,
        }
        assert again.join_order == list(fresh_join_order(lazy_db, T4))

    def test_entries_survive_drop_caches(self, lazy_db, tiny_repo):
        lazy_db.query(T4)
        lazy_db.drop_caches()
        assert lazy_db.query(T4).table.to_dicts() == cold_serial(tiny_repo, T4)
        assert counts(lazy_db)["hits"] == 1

    def test_eager_databases_hit_too(self, eager_db, tiny_repo):
        expected = cold_serial(tiny_repo, T4, approach="eager_plain")
        first = eager_db.query(T4)
        again = eager_db.query(T4)
        assert first.table.to_dicts() == again.table.to_dicts() == expected
        assert counts(eager_db)["hits"] == 1
        assert again.join_order == list(fresh_join_order(eager_db, T4))

    def test_every_entry_point_shares_one_bind(self, lazy_db, monkeypatch):
        binds = []
        bind = lazy_db.bind

        def counting(sql):
            binds.append(sql)
            return bind(sql)

        monkeypatch.setattr(lazy_db, "bind", counting)
        lazy_db.query_type(T4)
        lazy_db.explain(T4)
        lazy_db.explain_chunks(T4)
        lazy_db.approximate_query(T4, fraction=1.0)
        lazy_db.query(T4)
        assert binds == [T4]
        assert counts(lazy_db)["hits"] == 4


class TestInvalidation:
    def test_segment_append_recompiles(self, lazy_db, tiny_repo):
        lazy_db.query(T1)
        append_one_segment(lazy_db)
        after = lazy_db.query(T1)
        assert after.table.to_dicts() == cold_serial(
            tiny_repo, T1, setup=append_one_segment
        )
        assert counts(lazy_db)["invalidations"] == 1
        assert counts(lazy_db)["hits"] == 0
        assert after.join_order == list(fresh_join_order(lazy_db, T1))

    def test_window_insert_changes_the_join_order(self, lazy_db, tiny_repo):
        """Algorithm 1 grows H under a cached text; the recompiled plan
        orders its joins by the new row count, as a fresh compile does."""
        narrow, wide = windows_sql(0, 2), windows_sql(0, 48)
        before = lazy_db.query(narrow)
        assert lazy_db.query(narrow).join_order == before.join_order
        lazy_db.query(wide)  # derives every window: |H| grows
        after = lazy_db.query(narrow)
        assert after.join_order == list(fresh_join_order(lazy_db, narrow))
        assert after.join_order != before.join_order
        assert after.table.to_dicts() == cold_serial(tiny_repo, narrow)
        assert counts(lazy_db)["invalidations"] == 1

    def test_reset_derived_metadata_recompiles(self, lazy_db, tiny_repo):
        narrow = windows_sql(0, 2)
        lazy_db.query(windows_sql(0, 48))
        wide_order = lazy_db.query(narrow).join_order
        lazy_db.reset_derived_metadata()
        after = lazy_db.query(narrow)
        assert after.join_order == list(fresh_join_order(lazy_db, narrow))
        assert after.join_order != wide_order
        assert after.table.to_dicts() == cold_serial(tiny_repo, narrow)
        assert counts(lazy_db)["invalidations"] >= 1

    def test_write_during_derivation_recompiles(self, lazy_db, monkeypatch):
        """The bound plan was current, but a write landed before compile:
        the entry is replaced, never reused."""
        lazy_db.query(T4)
        ensure = lazy_db.views.ensure_for_query

        def writing(plan):
            append_one_segment(lazy_db)
            return ensure(plan)

        monkeypatch.setattr(lazy_db.views, "ensure_for_query", writing)
        lazy_db.query(T4)
        assert counts(lazy_db)["invalidations"] == 1
        assert counts(lazy_db)["hits"] == 0
        monkeypatch.undo()
        lazy_db.query(T4)
        assert counts(lazy_db)["hits"] == 1


SCHEMA_SQL = "SELECT m.v AS v FROM m ORDER BY v"


def create_m(db, dtype, values) -> None:
    db.database.catalog.create_table(
        "m", Schema.of(("id", INT64), ("v", dtype)), TableKind.METADATA
    )
    db.database.insert(
        "m",
        Table.from_rows(
            db.database.catalog.table("m").schema, list(enumerate(values))
        ),
    )


class TestSchemaChange:
    def test_drop_and_create_rebinds(self, lazy_db, tiny_repo):
        create_m(lazy_db, FLOAT64, [2.5, 0.5])
        old = lazy_db.query(SCHEMA_SQL)
        assert old.table.to_dicts() == [{"v": 0.5}, {"v": 2.5}]
        lazy_db.database.catalog.drop_table("m")
        create_m(lazy_db, STRING, ["b", "a", "c"])
        new = lazy_db.query(SCHEMA_SQL)
        assert new.table.schema.field("v").dtype is STRING
        assert new.table.to_dicts() == cold_serial(
            tiny_repo, SCHEMA_SQL,
            setup=lambda db: create_m(db, STRING, ["b", "a", "c"]),
        )
        assert counts(lazy_db)["invalidations"] == 1

    def test_dropped_table_fails_like_a_fresh_bind(self, lazy_db):
        create_m(lazy_db, FLOAT64, [1.0])
        lazy_db.query(SCHEMA_SQL)
        lazy_db.database.catalog.drop_table("m")
        with pytest.raises(BindError):
            lazy_db.bind(SCHEMA_SQL)
        with pytest.raises(BindError):
            lazy_db.query(SCHEMA_SQL)
        assert counts(lazy_db)["entries"] == 0


class TestBounds:
    @pytest.mark.parametrize(
        "sql, error",
        [("SELECT F.nope AS x FROM F", BindError), ("SELEKT 1", ParseError)],
    )
    def test_text_that_fails_to_bind_is_not_cached(self, lazy_db, sql, error):
        with pytest.raises(error):
            lazy_db.query(sql)
        assert counts(lazy_db)["entries"] == counts(lazy_db)["lookups"] == 0

    def test_lru_holds_at_its_bound(self, lazy_db, tiny_repo):
        assert lazy_db.plan_cache.capacity == PLAN_CACHE_ENTRIES
        lazy_db.plan_cache.capacity = 3
        texts = [
            t1_query(QueryParams(station=station))
            for station in ("ISK", "FIAM", "ARCI", "LATE", "NOPE")
        ]
        for sql in texts:
            lazy_db.query(sql)
        assert counts(lazy_db)["entries"] == 3
        assert counts(lazy_db)["evictions"] == 2
        lazy_db.query(texts[-1])
        assert counts(lazy_db)["hits"] == 1
        evicted = lazy_db.query(texts[0])
        assert counts(lazy_db)["hits"] == 1
        assert evicted.table.to_dicts() == cold_serial(tiny_repo, texts[0])


def test_pooled_sessions_share_one_entry(lazy_db, tiny_repo):
    expected = cold_serial(tiny_repo, T4)
    clients, repeats = 4, 5
    barrier = threading.Barrier(clients)

    def client(_):
        barrier.wait()
        return [
            lazy_db.query(T4).table.to_dicts() for _ in range(repeats)
        ]

    with ThreadPoolExecutor(max_workers=clients) as executor:
        runs = [rows for batch in executor.map(client, range(clients))
                for rows in batch]
    assert runs == [expected] * (clients * repeats)
    stats = counts(lazy_db)
    assert stats["lookups"] == clients * repeats
    assert stats["hits"] + stats["misses"] == stats["lookups"]
    assert stats["hits"] >= clients * (repeats - 1)
    assert stats["entries"] == 1
