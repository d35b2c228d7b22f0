"""The statistics-driven chunk planner and fetch scheduler.

Stage one of the two-stage model names the chunks a query *may* need; until
now the runtime rewrite turned that list into accesses in plain URI order
and fetched everything.  The :class:`ChunkPlanner` sits between the two:

1. **Prune** — each candidate chunk is tested against the per-chunk
   statistics of :class:`~repro.engine.chunk_stats.ChunkStatsCatalog`.
   A chunk whose min/max ranges (and, for the time attribute, per-segment
   zone map) cannot satisfy the query's literal bound conjuncts contributes
   no rows, so dropping it cannot change the result — the pushed predicate
   would have filtered every row anyway.
2. **Classify + cost** — surviving chunks are placed on the tier they will
   be served from (``resident`` in the recycler's memory tier <
   ``spilled`` mmap re-hydrate from the chunk store < ``remote``
   fetch + Steim decode) with an estimated cost in seconds.
3. **Schedule** — the fetch order starts the most expensive fetches first
   so remote latency overlaps cheap work; assembly order stays the given
   URI order so results are bit-identical to unscheduled execution.  The
   same :class:`ChunkPlan` drives serial and pooled execution, so both
   fetch in the same order.

The planner is attached to the engine :class:`~repro.engine.database.
Database`; its cumulative counters feed ``repro cache`` and the pruning
benchmark.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Sequence

from .predicates import (
    closed_int_bounds,
    literal_bounds_by_column,
    range_may_satisfy,
)
from ..util.counters import Counters
from ..util.lock_sanitizer import make_lock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .database import Database
    from .expressions import Expression

__all__ = ["PlannedChunk", "PrunedChunk", "ChunkPlan", "ChunkPlanner"]

# Tier labels, cheapest first; also the cost-model fallbacks (seconds).
TIER_RESIDENT = "resident"
TIER_SPILLED = "spilled"
TIER_REMOTE = "remote"
TIER_UNPLANNED = "unplanned"

# Cost model constants: a memory hit is free, an mmap re-hydrate pays a
# small fixed open cost plus page-in bandwidth, a remote fetch pays the
# loader's modeled latency plus the (observed or default) decode cost.
_REHYDRATE_BASE_SECONDS = 2e-4
_REHYDRATE_BYTES_PER_SECOND = 2e9
_DEFAULT_DECODE_SECONDS = 2e-3


@dataclass(frozen=True)
class PlannedChunk:
    """One chunk the scheduler will fetch: where from and at what cost."""

    uri: str
    tier: str
    cost_seconds: float


@dataclass(frozen=True)
class PrunedChunk:
    """One chunk statistics proved irrelevant, with the deciding column."""

    uri: str
    reason: str


@dataclass(frozen=True)
class ChunkPlan:
    """The scheduler's contract for one rewritten actual-data scan.

    ``chunks`` is in assembly (stage-one URI) order — result rows follow
    it, so execution stays bit-identical across executors and to the
    unplanned path.  ``fetch_order`` holds indexes into ``chunks`` in
    descending estimated cost: every executor issues fetches in this order.
    """

    table_name: str
    chunks: tuple[PlannedChunk, ...]
    pruned: tuple[PrunedChunk, ...] = ()
    fetch_order: tuple[int, ...] = ()

    @property
    def uris(self) -> tuple[str, ...]:
        return tuple(chunk.uri for chunk in self.chunks)

    @property
    def schedule(self) -> tuple[int, ...]:
        """``fetch_order``, or assembly order for a plan built without one."""
        return self.fetch_order or tuple(range(len(self.chunks)))

    @property
    def total_cost_seconds(self) -> float:
        return sum(chunk.cost_seconds for chunk in self.chunks)

    def tier_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for chunk in self.chunks:
            counts[chunk.tier] = counts.get(chunk.tier, 0) + 1
        return counts

    @classmethod
    def trivial(cls, uris: Sequence[str], table_name: str) -> "ChunkPlan":
        """An unplanned wrapper for callers that only have a URI list."""
        chunks = tuple(
            PlannedChunk(uri=uri, tier=TIER_UNPLANNED, cost_seconds=0.0)
            for uri in uris
        )
        return cls(
            table_name=table_name,
            chunks=chunks,
            fetch_order=tuple(range(len(chunks))),
        )

    def describe(self) -> str:
        """Multi-line rendering for ``repro explain`` and debugging."""
        lines = [
            f"chunk plan for {self.table_name}: {len(self.chunks)} to fetch, "
            f"{len(self.pruned)} pruned, "
            f"~{self.total_cost_seconds * 1000:.2f}ms estimated"
        ]
        for position, index in enumerate(self.fetch_order):
            chunk = self.chunks[index]
            lines.append(
                f"  [{position:02d}] {chunk.tier:<9} "
                f"{chunk.cost_seconds * 1000:8.3f}ms  {chunk.uri}"
            )
        for pruned in self.pruned:
            lines.append(f"  [--] pruned ({pruned.reason})  {pruned.uri}")
        return "\n".join(lines)


@dataclass
class PlannerStats(Counters):
    """Cumulative counters (``repro cache`` and the pruning benchmark)."""

    plans_built: int = 0
    chunks_considered: int = 0
    chunks_pruned: int = 0
    chunks_scheduled: int = 0


class ChunkPlanner:
    """Builds :class:`ChunkPlan` objects against one database's state."""

    def __init__(self, database: "Database") -> None:
        self.database = database
        self.stats = PlannerStats()
        self._lock = make_lock("ChunkPlanner._lock")

    # -- planning ----------------------------------------------------------

    def plan(
        self,
        uris: Sequence[str],
        table_name: str,
        predicate: "Expression | None" = None,
        prune: bool = True,
    ) -> ChunkPlan:
        """Prune, classify and schedule the given candidate chunks."""
        bounds = literal_bounds_by_column(predicate) if prune else {}
        catalog = self.database.chunk_stats
        cached = self.database.recycler.cached_uris()
        store = self.database.chunk_store
        stored = store.uris()

        kept: list[PlannedChunk] = []
        pruned: list[PrunedChunk] = []
        default_decode = self._default_decode_seconds(catalog)
        fetch_delay = self._fetch_delay_seconds()
        for uri in uris:
            stats = catalog.get(uri)
            reason = self._prune_reason(stats, bounds) if bounds else None
            if reason is not None:
                pruned.append(PrunedChunk(uri=uri, reason=reason))
                continue
            kept.append(
                self._classify(
                    uri, stats, cached, stored, store,
                    default_decode, fetch_delay,
                )
            )
        # Most expensive first; ties broken by assembly position so the
        # schedule is deterministic for equal-cost chunks.
        fetch_order = tuple(
            sorted(
                range(len(kept)),
                key=lambda i: (-kept[i].cost_seconds, i),
            )
        )
        with self._lock:
            self.stats.plans_built += 1
            self.stats.chunks_considered += len(uris)
            self.stats.chunks_pruned += len(pruned)
            self.stats.chunks_scheduled += len(kept)
        return ChunkPlan(
            table_name=table_name,
            chunks=tuple(kept),
            pruned=tuple(pruned),
            fetch_order=fetch_order,
        )

    def stats_snapshot(self) -> dict[str, int]:
        with self._lock:
            return asdict(self.stats)

    # -- pruning -----------------------------------------------------------

    @staticmethod
    def _prune_reason(stats, bounds: dict) -> str | None:
        """The column whose statistics exclude this chunk, or None.

        Chunks without statistics (or without a range for the bounded
        column) always survive: pruning only ever acts on known-true
        bounds.  Value columns gain ranges only after the first full
        decode; time/id columns have them from registration.
        """
        if stats is None:
            return None
        for column, ops in bounds.items():
            column_range = stats.ranges.get(column)
            if column_range is not None:
                minimum, maximum = column_range
                for op, value in ops:
                    if not range_may_satisfy(op, value, minimum, maximum):
                        return column
            zones = stats.segment_zones
            if zones is not None and zones.attribute == column:
                low, high = closed_int_bounds(ops)
                if (low is not None or high is not None) and not (
                    zones.prune_range(low, high)
                ):
                    # Sub-chunk granularity: the query's window falls
                    # entirely into gaps between this chunk's segments.
                    return f"{column} (segment zones)"
        return None

    # -- classification and cost -------------------------------------------

    def _classify(
        self, uri, stats, cached, stored, store, default_decode, fetch_delay
    ) -> PlannedChunk:
        if uri in cached:
            return PlannedChunk(uri=uri, tier=TIER_RESIDENT, cost_seconds=0.0)
        if uri in stored:
            payload = store.payload_nbytes(uri)
            cost = _REHYDRATE_BASE_SECONDS + payload / _REHYDRATE_BYTES_PER_SECOND
            return PlannedChunk(uri=uri, tier=TIER_SPILLED, cost_seconds=cost)
        decode = default_decode
        if stats is not None and stats.loading_cost is not None:
            decode = stats.loading_cost
        return PlannedChunk(
            uri=uri, tier=TIER_REMOTE, cost_seconds=fetch_delay + decode
        )

    @staticmethod
    def _default_decode_seconds(catalog) -> float:
        """Average observed decode cost (O(1)), or the model default."""
        average = catalog.average_loading_cost()
        return _DEFAULT_DECODE_SECONDS if average is None else average

    def _fetch_delay_seconds(self) -> float:
        loader = self.database.chunk_loader
        delay_ms = getattr(loader, "io_delay_ms", 0.0) if loader else 0.0
        return float(delay_ms) / 1000.0
