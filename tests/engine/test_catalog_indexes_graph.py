"""Tests for the catalog, index structures, query graph and database."""

import pytest

from repro.engine import algebra
from repro.engine.catalog import Catalog, ForeignKey, TableKind
from repro.engine.database import Database
from repro.engine.errors import CatalogError, ExecutionError, PlanError
from repro.engine.expressions import BooleanOp, Comparison, col, lit
from repro.engine.indexes import HashIndex, JoinIndex
from repro.engine.join_graph import build_query_graph
from repro.engine.table import Schema, Table
from repro.engine.types import INT64, STRING


class TestCatalog:
    def test_create_and_lookup(self):
        catalog = Catalog()
        catalog.create_table(
            "t", Schema.of(("x", INT64)), TableKind.METADATA
        )
        assert catalog.has_table("t")
        assert catalog.table("t").kind is TableKind.METADATA

    def test_duplicate_rejected(self):
        catalog = Catalog()
        catalog.create_table("t", Schema.of(("x", INT64)), TableKind.ACTUAL)
        with pytest.raises(CatalogError):
            catalog.create_table("t", Schema.of(("x", INT64)), TableKind.ACTUAL)

    def test_view_table_name_collision(self):
        catalog = Catalog()
        catalog.create_table("t", Schema.of(("x", INT64)), TableKind.ACTUAL)
        with pytest.raises(CatalogError):
            catalog.create_view("t", lambda: None)

    def test_kind_classification(self):
        catalog = Catalog()
        catalog.create_table("g", Schema.of(("x", INT64)), TableKind.METADATA)
        catalog.create_table("d", Schema.of(("x", INT64)), TableKind.DERIVED)
        catalog.create_table("a", Schema.of(("x", INT64)), TableKind.ACTUAL)
        assert catalog.metadata_table_names() == {"g", "d"}
        assert catalog.actual_table_names() == {"a"}

    def test_pk_column_must_exist(self):
        catalog = Catalog()
        with pytest.raises(CatalogError):
            catalog.create_table(
                "t",
                Schema.of(("x", INT64)),
                TableKind.METADATA,
                primary_key=("nope",),
            )

    def test_fk_arity_checked(self):
        with pytest.raises(CatalogError):
            ForeignKey(("a", "b"), "t", ("c",))

    def test_append_schema_checked(self):
        catalog = Catalog()
        entry = catalog.create_table(
            "t", Schema.of(("x", INT64)), TableKind.ACTUAL
        )
        with pytest.raises(CatalogError):
            entry.append(Table.from_rows(Schema.of(("y", INT64)), [(1,)]))

    def test_describe_mentions_tables(self):
        catalog = Catalog()
        catalog.create_table("t", Schema.of(("x", INT64)), TableKind.ACTUAL)
        assert "t" in catalog.describe()


class TestHashIndex:
    def test_build_and_lookup(self):
        table = Table.from_rows(
            Schema.of(("k", INT64), ("v", STRING)), [(1, "a"), (2, "b")]
        )
        index = HashIndex("t", ["k"])
        index.build(table)
        assert index.lookup((1,)) == [0]
        assert index.lookup((9,)) == []
        assert index.is_unique()

    def test_duplicates_detected(self):
        table = Table.from_rows(
            Schema.of(("k", INT64)), [(1,), (1,)]
        )
        index = HashIndex("t", ["k"])
        index.build(table)
        assert not index.is_unique()

    def test_extend_offsets_rows(self):
        schema = Schema.of(("k", INT64))
        index = HashIndex("t", ["k"])
        index.build(Table.from_rows(schema, [(1,)]))
        index.extend(Table.from_rows(schema, [(2,)]), base_row=1)
        assert index.lookup((2,)) == [1]

    def test_composite_key(self):
        table = Table.from_rows(
            Schema.of(("a", INT64), ("b", STRING)), [(1, "x"), (1, "y")]
        )
        index = HashIndex("t", ["a", "b"])
        index.build(table)
        assert index.contains((1, "y"))
        assert not index.contains((1, "z"))

    def test_nbytes_positive(self):
        index = HashIndex("t", ["k"])
        index.build(Table.from_rows(Schema.of(("k", INT64)), [(1,)]))
        assert index.nbytes > 0


class TestJoinIndex:
    def test_positions(self):
        pk = Table.from_rows(Schema.of(("k", INT64)), [(10,), (20,), (30,)])
        fk = Table.from_rows(
            Schema.of(("k", INT64)), [(30,), (10,), (99,)]
        )
        index = JoinIndex("fk", ["k"], "pk", ["k"])
        index.build(fk, pk)
        assert index.positions.tolist() == [2, 0, -1]

    def test_empty_sides(self):
        index = JoinIndex("fk", ["k"], "pk", ["k"])
        index.build(
            Table.empty(Schema.of(("k", INT64))),
            Table.empty(Schema.of(("k", INT64))),
        )
        assert index.num_rows == 0


class TestQueryGraph:
    def _schemas(self):
        return {
            name: Schema.of((f"{name}.k", INT64), (f"{name}.v", INT64))
            for name in ("A", "B", "C")
        }

    def test_vertices_edges_and_local_predicates(self):
        schemas = self._schemas()
        plan = algebra.Select(
            algebra.Join(
                algebra.Scan("A", schemas["A"]),
                algebra.Scan("B", schemas["B"]),
                Comparison("=", col("A.k"), col("B.k")),
            ),
            Comparison(">", col("A.v"), lit(5)),
        )
        graph = build_query_graph(plan)
        assert set(graph.vertices) == {"A", "B"}
        assert len(graph.edges) == 1
        assert len(graph.vertex("A").predicates) == 1

    def test_hyper_predicate_goes_to_hyper_list(self):
        schemas = self._schemas()
        three_way = algebra.Join(
            algebra.Join(
                algebra.Scan("A", schemas["A"]),
                algebra.Scan("B", schemas["B"]),
                None,
            ),
            algebra.Scan("C", schemas["C"]),
            None,
        )
        three_table_pred = Comparison(
            "=",
            col("A.k"),
            BooleanOp("NOT", [Comparison("=", col("B.k"), col("C.k"))]),
        )
        plan = algebra.Select(three_way, three_table_pred)
        graph = build_query_graph(plan)
        assert len(graph.edges) == 0
        assert len(graph.hyper_predicates) == 1

    def test_rejects_non_join_block(self):
        schemas = self._schemas()
        agg = algebra.Aggregate(
            algebra.Scan("A", schemas["A"]),
            [],
            [algebra.AggregateSpec("COUNT", None, "n")],
        )
        with pytest.raises(PlanError):
            build_query_graph(agg)

    def test_connected_components(self):
        schemas = self._schemas()
        plan = algebra.Join(
            algebra.Join(
                algebra.Scan("A", schemas["A"]),
                algebra.Scan("B", schemas["B"]),
                Comparison("=", col("A.k"), col("B.k")),
            ),
            algebra.Scan("C", schemas["C"]),
            None,
        )
        graph = build_query_graph(plan)
        components = graph.connected_components()
        assert {"A", "B"} in components
        assert {"C"} in components


class TestDatabase:
    def test_paged_roundtrip_through_scan(self):
        db = Database(buffer_pool_bytes=1 << 20)
        db.catalog.create_table(
            "t", Schema.of(("x", INT64)), TableKind.ACTUAL
        )
        db.insert(
            "t",
            Table.from_rows(
                db.catalog.table("t").schema, [(i,) for i in range(100)]
            ),
        )
        bytes_written = db.page_out("t")
        assert bytes_written > 0
        scanned = db.scan_base_table("t")
        assert scanned.num_rows == 100
        assert db.table_num_rows("t") == 100
        db.close()

    def test_insert_into_paged_table(self):
        db = Database(buffer_pool_bytes=1 << 20)
        db.catalog.create_table("t", Schema.of(("x", INT64)), TableKind.ACTUAL)
        schema = db.catalog.table("t").schema
        db.insert("t", Table.from_rows(schema, [(1,)]))
        db.page_out("t")
        db.insert("t", Table.from_rows(schema, [(2,)]))
        assert db.table_num_rows("t") == 2
        db.close()

    def test_drop_caches(self):
        db = Database(buffer_pool_bytes=1 << 20)
        db.catalog.create_table("t", Schema.of(("x", INT64)), TableKind.ACTUAL)
        db.insert(
            "t", Table.from_rows(db.catalog.table("t").schema, [(1,)])
        )
        db.page_out("t")
        db.scan_base_table("t")
        assert db.buffer_pool.num_pages > 0
        db.drop_caches()
        assert db.buffer_pool.num_pages == 0
        db.close()

    def test_chunk_loader_required(self):
        db = Database(buffer_pool_bytes=1 << 20)
        db.catalog.create_table("t", Schema.of(("x", INT64)), TableKind.ACTUAL)
        with pytest.raises(ExecutionError):
            db.load_chunk("file:///nope", "t")
        db.close()

    def test_metadata_nbytes_counts_red_only(self):
        db = Database(buffer_pool_bytes=1 << 20)
        db.catalog.create_table("g", Schema.of(("x", INT64)), TableKind.METADATA)
        db.catalog.create_table("a", Schema.of(("x", INT64)), TableKind.ACTUAL)
        schema = db.catalog.table("g").schema
        db.insert("g", Table.from_rows(schema, [(1,)] * 10))
        db.insert("a", Table.from_rows(schema, [(1,)] * 1000))
        assert db.metadata_nbytes() < db.database_nbytes()
        db.close()
