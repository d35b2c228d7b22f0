"""SommelierDB — the public facade of the reproduced system.

"A system that, like a good sommelier, stores the bottles (actual data) in
the cellar (the file repository) but keeps the contents of the labels (the
metadata) in his head" (Section I).

A :class:`SommelierDB` wraps one engine :class:`~repro.engine.Database`.
Every query runs the same two-stage program (R1–R4 join ordering, stage
one over the metadata, stage two over the actual data), and derived
metadata materializes incrementally via Algorithm 1.  What the database
holds decides what stage two reads:

* **lazy** — only given metadata is loaded (by the Registrar) and ``D`` is
  empty; the run-time optimizer rewrites each scan of ``D`` into the
  chunks stage one named, loaded from the file repository;
* **eager** — one of the eager loading strategies put the actual data in
  ``D``; there is nothing to rewrite, and stage two scans ``D``.

Typical use::

    db = SommelierDB.create()
    db.register_repository(FileRepository("/data/ingv"))
    result = db.query(\"\"\"
        SELECT AVG(D.sample_value) FROM dataview
        WHERE F.station = 'ISK' AND F.channel = 'BHE'
          AND D.sample_time >= '2010-01-12T22:15:00.000'
          AND D.sample_time <  '2010-01-12T22:15:02.000'
    \"\"\")
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from typing import Hashable

from ..engine import algebra
from ..engine.database import Database
from ..engine.errors import CatalogError, ExecutionError
from ..engine.physical import ExecStats
from ..engine.sql import bind_sql
from ..mseed.repository import FileRepository
from .partial_views import DerivationReport, PartialViewManager
from .plan_cache import PlanCache
from .query_types import QueryType, classify_plan
from .registrar import Registrar, RegistrarReport, XseedChunkLoader, index_chunks
from .result_cache import NormalizedPlan, ResultCache, normalize_plan
from .schema import SommelierConfig, create_seismology_schema
from .two_stage import (
    CompiledQuery,
    QueryResult,
    TwoStageCompiler,
    TwoStageOptions,
)
from ..util.counters import Counters
from ..util.durable import fsync_dir, fsync_file
from ..util.lock_sanitizer import make_lock

__all__ = ["CompiledSQL", "SommelierDB"]

# Durable catalog pointers: where the given metadata lives (F and S, the
# one chunk catalog) and the loader's modeled fetch latency, written
# atomically under the workdir.
CATALOG_POINTERS = "catalog.json"
CATALOG_VERSION = 1
# Given-metadata tables checkpointed through the paged store.  Derived
# metadata (H) is deliberately *not* persisted: Algorithm 1 re-derives it
# on demand — over re-hydrated chunks, so cheaply — which keeps restart
# correctness independent of the view manager's in-memory bookkeeping.
DURABLE_TABLES = ("F", "S")


@dataclass
class SommelierStats(Counters):
    """Cumulative facade-level counters."""

    queries_executed: int = 0
    derivations: int = 0
    windows_materialized: int = 0
    chunks_loaded_total: int = 0
    result_cache_hits: int = 0
    result_cache_subsumed: int = 0
    chunks_shared: int = 0


@dataclass(frozen=True)
class CompiledSQL:
    """Everything built for one SQL text short of executing it.

    The plan cache's entry (:mod:`repro.core.plan_cache`): current while
    the catalog still reports ``versions`` for ``base_tables``.
    ``normalized`` is the result cache's fingerprint, built only when that
    cache is on.
    """

    plan: algebra.LogicalPlan
    base_tables: frozenset[str]
    versions: tuple[tuple[str, int], ...]
    compiled: CompiledQuery
    normalized: NormalizedPlan | None = None


class SommelierDB:
    """One prepared database instance.

    :meth:`query` is safe to call from multiple threads: the engine caches
    (recycler, buffer pool) are internally synchronized, Algorithm-1
    derivation is serialized by a facade-level lock (derived-metadata
    inserts are the one shared write path at query time), and the stats
    counters are updated under a mutex.  Concurrent clients each call
    :meth:`query` from their own thread; the serving front end bounds how
    many run at once.
    """

    # Machine-checked (repro analyze, lock-discipline): counter merges
    # from concurrent queries.
    _GUARDED = {"_stats_lock": ("stats",)}

    def __init__(
        self,
        database: Database,
        config: SommelierConfig,
        options: TwoStageOptions | None = None,
    ) -> None:
        self.database = database
        self.config = config
        self.options = options if options is not None else TwoStageOptions()
        self.compiler = TwoStageCompiler(database, config, self.options)
        self.views = PartialViewManager(database, config, self.compiler)
        # Workload-aware prefetcher (opt-in): warms the recycler with the
        # chunks each session is predicted to need next.
        self.prefetcher = None
        if self.options.prefetch:
            from .prefetch import WorkloadPrefetcher

            self.prefetcher = WorkloadPrefetcher(
                database, table_name=config.actual_tables[0]
            )
        # Semantic result recycler (opt-in): caches delivered results by
        # normalized plan fingerprint and serves repeats/subsumed queries
        # without touching either execution stage.
        self.result_cache = None
        if self.options.result_cache:
            self.result_cache = ResultCache(versions=database.catalog.versions)
        # Compiled-plan cache (always on): a repeated SQL text skips bind
        # and compile while the catalog versions it was compiled at hold.
        self.plan_cache: PlanCache[CompiledSQL] = PlanCache(
            self._current_versions
        )
        self.stats = SommelierStats()
        self._stats_lock = make_lock("SommelierDB._stats_lock")
        self._derivation_lock = make_lock("SommelierDB._derivation_lock")
        self._closed = False

    # -- construction ----------------------------------------------------------

    @classmethod
    def create(
        cls,
        workdir: str | None = None,
        buffer_pool_bytes: int = 256 * 1024 * 1024,
        recycler_bytes: int = 1 << 30,
        options: TwoStageOptions | None = None,
    ) -> "SommelierDB":
        """A fresh database with the seismology warehouse schema installed."""
        database = Database(
            workdir=workdir,
            buffer_pool_bytes=buffer_pool_bytes,
            recycler_bytes=recycler_bytes,
        )
        config = create_seismology_schema(database)
        return cls(database, config, options=options)

    @classmethod
    def open(
        cls,
        workdir: str,
        buffer_pool_bytes: int = 256 * 1024 * 1024,
        recycler_bytes: int = 1 << 30,
        options: TwoStageOptions | None = None,
    ) -> "SommelierDB":
        """Reopen a database over a persistent workdir — and come back warm.

        Restores the durable catalog pointers written by :meth:`checkpoint`
        (the given-metadata tables F and S through the paged store, and
        the paged residency of any table an eager preparation paged out).
        From F, :func:`~repro.core.registrar.index_chunks` rebuilds the
        loader's URI→file-id map, as at registration; decoded value
        ranges come from chunk-store manifests.  The recycler's disk tier
        picks up every chunk spilled or flushed by the previous process:
        the first stage-two after a restart re-hydrates mmap-backed chunks
        instead of re-decoding Steim payloads.  An eager
        database comes back eager: its paged ``D`` is restored, so stage
        two scans it and loads no chunk.  Not restored: hash /
        join indexes (rebuild with ``database.build_*_indexes``),
        derived metadata H (re-derived on demand), and the value ranges of
        a chunk in neither recycler tier at checkpoint.  A workdir without
        a checkpoint opens as a fresh (unregistered) database.  Pointer
        keys this build does not read (older builds' ``loader.file_ids``
        and ``chunk_stats``) are ignored, and workdir directories it does
        not own are never touched.
        """
        db = cls.create(
            workdir=workdir,
            buffer_pool_bytes=buffer_pool_bytes,
            recycler_bytes=recycler_bytes,
            options=options,
        )
        db._restore_catalog_pointers()
        # Chunk statistics committed inside chunk-store manifests survive
        # even a crash that lost the checkpoint: adopt them so the planner
        # can prune by value without re-decoding anything.
        db.database.adopt_store_stats()
        return db

    # -- durability ------------------------------------------------------------

    def checkpoint(self) -> None:
        """Persist catalog pointers and flush the warm tier to disk.

        After a checkpoint, :meth:`open` on the same workdir serves queries
        without re-registering the repository and without re-decoding any
        chunk that was warm at checkpoint time.  Runs automatically when a
        persistent database is closed.
        """
        pointers: dict = {"version": CATALOG_VERSION, "tables": []}
        loader = self.database.chunk_loader
        if isinstance(loader, XseedChunkLoader):
            pointers["loader"] = {"io_delay_ms": loader.io_delay_ms}
        for base in self.database.catalog.tables():
            if base.paged and self.database.paged_store.has_table(base.name):
                # Pages are already on disk (page_out wrote them); record
                # that the reopened catalog must re-adopt them as paged —
                # this is what makes eager databases restartable.
                pointers["tables"].append({"name": base.name, "paged": True})
            elif base.name in DURABLE_TABLES and base.num_rows:
                self.database.paged_store.store_table(base.name, base.data)
                pointers["tables"].append({"name": base.name, "paged": False})
        self.database.recycler.flush_to_store()
        path = os.path.join(self.database.workdir, CATALOG_POINTERS)
        staging = path + ".tmp"
        # Same commit discipline as the chunk store: the pointers hit the
        # platter before the rename makes them the catalog, and the rename
        # itself is made durable by syncing the workdir.  Otherwise a
        # power loss can leave a zero-length catalog.json that reopen
        # treats as "no checkpoint" — silently discarding paged tables.
        with open(staging, "w", encoding="utf-8") as handle:
            json.dump(pointers, handle)
            fsync_file(handle)
        os.replace(staging, path)
        fsync_dir(self.database.workdir)

    def _restore_catalog_pointers(self) -> bool:
        """Load the checkpoint, if one exists and parses; returns success."""
        path = os.path.join(self.database.workdir, CATALOG_POINTERS)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                pointers = json.load(handle)
        except (OSError, ValueError):
            return False
        if not isinstance(pointers, dict) or (
            pointers.get("version") != CATALOG_VERSION
        ):
            return False
        loader_info = pointers.get("loader")
        if isinstance(loader_info, dict):
            delay = float(loader_info.get("io_delay_ms", 0.0))
            self.database.set_chunk_loader(XseedChunkLoader(io_delay_ms=delay))
        for spec in pointers.get("tables", []):
            name = spec["name"]
            base = self.database.catalog.table(name)
            if not self.database.paged_store.restore_schema(name, base.schema):
                continue
            if spec.get("paged"):
                # Disk-resident table (an eager database's D): scans go
                # back through the buffer pool, as before the restart.
                base.paged = True
                base.truncate()
            else:
                base.replace(self.database.paged_store.read_table(name))
        index_chunks(self.database, self.database.catalog.table("F").data)
        return True

    def register_repository(
        self, repository: FileRepository, threads: int = 8
    ) -> RegistrarReport:
        """Eagerly load the given metadata of every chunk (Registrar)."""
        return Registrar(self.database, threads=threads).register(repository)

    # -- querying ------------------------------------------------------------------

    def bind(self, sql: str) -> algebra.LogicalPlan:
        """Bind ``sql`` afresh (uncached; queries go through the plan cache)."""
        return bind_sql(sql, self.database)

    def query_type(self, sql: str) -> QueryType:
        entry, _ = self._compile_sql(sql, derive=False)
        return classify_plan(entry.plan, self.database.catalog)

    def query(self, sql: str, cancel=None) -> QueryResult:
        """Answer a SQL query; runs Algorithm 1 first when DMd is involved."""
        result, _ = self.query_with_derivation(sql, cancel=cancel)
        return result

    def query_with_derivation(
        self, sql: str, session_id: Hashable = 0, cancel=None
    ) -> tuple[QueryResult, DerivationReport]:
        """Like :meth:`query` but also returns the Algorithm-1 report.

        ``session_id`` is the workload prefetcher's history key: any
        hashable the caller picks to tell its clients apart (the server
        passes its client id), so the prefetcher follows each client's
        walk on its own; 0 means the facade itself.  ``cancel`` is an
        optional :class:`~repro.engine.physical.CancelToken`: setting it
        aborts the execution with
        :class:`~repro.engine.errors.QueryCancelled` at the next operator
        entry or chunk boundary.
        """
        started = time.perf_counter()
        if cancel is not None:
            cancel.raise_if_cancelled()
        entry, derivation = self._compile_sql(sql)
        served = None
        if entry.normalized is not None:
            # The entry's versions were read after this query's own
            # derivation and before executing: a write landing while the
            # query runs leaves the result tagged with pre-write versions,
            # so it is never served.
            served = self.result_cache.serve(entry.normalized, entry.versions)
        if served is not None:
            table, outcome = served
            stats = ExecStats()
            if outcome == "exact":
                stats.results_from_cache = 1
            else:
                stats.results_subsumed = 1
            result = QueryResult(
                table=table, seconds=0.0, stats=stats, result_cache=outcome
            )
        else:
            result = self.compiler.execute_compiled(
                entry.compiled, cancel=cancel
            )
            if entry.normalized is not None:
                self.result_cache.admit(
                    entry.normalized, result.table, result.seconds,
                    entry.versions,
                )
            if self.prefetcher is not None and result.rewrite.chunk_plans:
                # Credit the chunks an earlier prefetch warmed and this
                # query then found resident, then kick off the next
                # predictions.  A database whose D holds the data plans
                # no chunk, so it never warms one.
                result.stats.chunks_prefetched = self.prefetcher.record_hits(
                    result.chunk_outcomes
                )
                self.prefetcher.note_query(
                    session_id, result.rewrite.required_uris
                )
        self._account(result, derivation)
        # Wall time from the SQL text: bind/compile, Algorithm 1, and the
        # cache or execution.
        result.seconds = time.perf_counter() - started
        return result, derivation

    def _compile_sql(
        self, sql: str, derive: bool = True
    ) -> tuple[CompiledSQL, DerivationReport]:
        """SQL text to compiled query — the one path every entry point takes.

        1. Reuse the cached bound plan while its versions hold, else bind.
        2. With ``derive``, run Algorithm 1 (serialized: derivation inserts
           into H, so concurrent queries for overlapping windows cannot
           double-materialize; execution afterwards is lock-free).
        3. Read the versions once more: while they equal the entry's, its
           compiled form is what a fresh compile would build; otherwise
           compile and cache a new entry tagged with that read.
        """
        if self._closed:
            raise ExecutionError("database is closed")
        cached = self.plan_cache.bound(sql)
        if cached is not None:
            plan, tables = cached.plan, cached.base_tables
        else:
            plan = self.bind(sql)
            tables = frozenset(plan.base_tables())
        derivation = DerivationReport()
        if derive:
            with self._derivation_lock:
                derivation = self.views.ensure_for_query(plan)
        versions = self.database.catalog.versions(tables)
        entry = self.plan_cache.reuse(sql, cached, versions)
        if entry is None:
            compiled = self.compiler.compile(plan)
            normalized = None
            if self.result_cache is not None:
                normalized = (
                    cached.normalized
                    if cached is not None
                    else normalize_plan(plan)
                )
            entry = CompiledSQL(plan, tables, versions, compiled, normalized)
            self.plan_cache.store(sql, entry)
        return entry, derivation

    def _current_versions(
        self, tables: frozenset[str]
    ) -> tuple[tuple[str, int], ...] | None:
        """The catalog versions of ``tables``; None once one is dropped."""
        try:
            return self.database.catalog.versions(tables)
        except CatalogError:
            return None

    def _account(self, result: QueryResult, derivation: DerivationReport) -> None:
        """Add one answered query to the facade's cumulative counters."""
        delta = SommelierStats(
            queries_executed=1,
            chunks_loaded_total=result.stats.chunks_loaded,
            result_cache_hits=result.stats.results_from_cache,
            result_cache_subsumed=result.stats.results_subsumed,
            chunks_shared=result.stats.chunks_shared,
        )
        if derivation.applicable:
            delta.derivations = 1
            delta.windows_materialized = derivation.windows_inserted
            delta.chunks_loaded_total += derivation.chunks_loaded
        with self._stats_lock:
            self.stats.merge(delta)

    def approximate_query(
        self, sql: str, fraction: float = 0.2, seed: int = 20150413
    ):
        """Estimate a scalar aggregate from a chunk sample (Section VIII).

        Stage one runs exactly; only a ``fraction`` of the required chunks
        is loaded.  Returns an
        :class:`~repro.core.sampling.ApproximateResult`.
        """
        from .sampling import ChunkSampler

        entry, _ = self._compile_sql(sql)
        sampler = ChunkSampler(
            self.database, self.config, self.compiler,
            fraction=fraction, seed=seed,
        )
        return sampler.approximate_query(entry.plan, entry.compiled)

    # -- inspection -----------------------------------------------------------------

    def explain(self, sql: str) -> str:
        """Compile-time view of a query: type, join order, the columns
        stage one produces, MAL listing."""
        entry, _ = self._compile_sql(sql, derive=False)
        query_type = classify_plan(entry.plan, self.database.catalog)
        compiled = entry.compiled
        reads = (
            "all columns"
            if compiled.qf_needed is None
            else ", ".join(sorted(compiled.qf_needed))
        )
        return (
            f"query type: {query_type.value}\n"
            f"join order: {' -> '.join(compiled.join_order)}\n"
            f"two-stage: {compiled.two_stage}\n"
            f"stage one reads: {reads}\n"
            f"MAL program:\n{compiled.listing()}"
        )

    def explain_chunks(self, sql: str) -> str:
        """Run-time view of stage two: the chunk plan, without fetching.

        Executes stage one and the runtime rewrite only, then renders how
        many chunks stage one named (time, ``file_id`` and ``segment_no``
        are decided there) and each rewritten scan's
        :class:`~repro.engine.chunk_planner.ChunkPlan` — chunks pruned by
        decoded value ranges, then the chunks to fetch in fetch (assembly)
        order with their predicted serving tier.  Backs ``repro explain``.
        """
        compiled = self._compile_sql(sql, derive=False)[0].compiled
        _, report = self.compiler.plan_stage_two(compiled)
        lines = [
            f"stage one named {len(report.required_uris)} candidate "
            f"chunk(s); {len(report.pruned_uris)} pruned by statistics"
        ]
        if not compiled.two_stage:
            lines.append("metadata-only query: stage two fetches no chunks")
        elif report.actual_resident:
            lines.append("actual data is in D: stage two fetches no chunks")
        for chunk_plan in report.chunk_plans:
            lines.append(chunk_plan.describe())
        return "\n".join(lines)

    def counters_snapshot(self) -> dict:
        """Every engine/facade counter surface, one JSON-ready dict.

        The single serialization the monitoring surfaces share: ``repro
        cache --json`` prints exactly this, and the serving front end's
        ``/stats`` endpoint embeds it — so the two can never drift.  Keys
        are the recycler tiers (``memory``/``disk``) plus
        :meth:`planner_stats` sections, the compiled-plan cache
        (``plan_cache``) and the facade's cumulative query counters.
        """
        snapshot = dict(self.database.recycler.tier_stats())
        snapshot.update(self.planner_stats())
        snapshot["plan_cache"] = self.plan_cache.stats_snapshot()
        with self._stats_lock:
            snapshot["facade"] = asdict(self.stats)
        return snapshot

    def planner_stats(self) -> dict:
        """Cumulative planner + prefetch counters (``repro cache``)."""
        # Every tracked chunk is a decoded one, so the two counts agree.
        decoded = len(self.database.chunk_stats)
        stats: dict = {
            "planner": self.database.chunk_planner.stats_snapshot(),
            "chunk_stats": {
                "chunks_tracked": decoded,
                "chunks_enriched": decoded,
            },
        }
        if self.prefetcher is not None:
            stats["prefetch"] = self.prefetcher.stats_snapshot()
        if self.result_cache is not None:
            stats["result_cache"] = self.result_cache.stats_snapshot()
        return stats

    def drop_caches(self) -> None:
        """Cold-start simulation (paper: restart server, flush buffers)."""
        self.database.drop_caches()

    def reset_derived_metadata(self) -> None:
        """Truncate H and forget its materialization state.

        Used by the data-to-insight experiments (Figure 8), where every
        measurement point must start from the state right after preparation
        — for non-eager_dmd databases that means an empty DMd view.
        """
        self.database.catalog.table("H").truncate()
        self.views = PartialViewManager(self.database, self.config, self.compiler)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close the engine; persistent databases checkpoint first.

        Idempotent.  After close, :meth:`query` raises — reopen a
        persistent workdir with :meth:`open`.
        """
        if self._closed:
            return
        if self.prefetcher is not None:
            # Settle in-flight warm-ups so the checkpoint below flushes a
            # stable recycler image.
            self.prefetcher.wait_idle()
        if self.database.persistent:
            self.checkpoint()
        self._closed = True
        self.database.close()

    def __enter__(self) -> "SommelierDB":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
