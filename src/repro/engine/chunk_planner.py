"""The statistics-driven chunk planner.

Stage one of the two-stage model names the chunks a query *may* need,
deciding from metadata everything headers know (time, ``file_id``,
``segment_no``); the runtime rewrite turns that list into one chunk scan.
The :class:`ChunkPlanner` sits between the two:

1. **Prune** — each candidate chunk is tested against the decoded value
   ranges of :class:`~repro.engine.chunk_stats.ChunkStatsCatalog`, which
   no header holds.  A chunk whose min/max ranges cannot satisfy the
   query's literal bound conjuncts contributes no rows, so dropping it
   cannot change the result — the pushed predicate would have filtered
   every row anyway.
2. **Classify** — each surviving chunk is labelled with the tier it is
   predicted to be served from: ``resident`` in the recycler's memory
   tier, ``spilled`` (mmap re-hydrate from the chunk store) or ``remote``
   (repository fetch + Steim decode).  The label is for ``repro explain``
   and the reports; it does not change what the scan does.

Every executor fetches the surviving chunks in assembly (stage-one URI)
order and places the rows in that order, so results are bit-identical
across serial and pooled execution.  Nothing in the paper orders the
fetches, and a descending-cost order measured no faster (README,
"Retracted: cost-ordered fetch scheduling").

The planner is attached to the engine :class:`~repro.engine.database.
Database`; its cumulative counters feed ``repro cache`` and the pruning
benchmark.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Sequence

from .predicates import LiteralBounds
from ..util.counters import Counters
from ..util.lock_sanitizer import make_lock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .database import Database
    from .expressions import Expression

__all__ = ["PlannedChunk", "PrunedChunk", "ChunkPlan", "ChunkPlanner"]

# Tier labels, cheapest first.
TIER_RESIDENT = "resident"
TIER_SPILLED = "spilled"
TIER_REMOTE = "remote"


@dataclass(frozen=True)
class PlannedChunk:
    """One chunk the scan will fetch, and the tier it is predicted from."""

    uri: str
    tier: str


@dataclass(frozen=True)
class PrunedChunk:
    """One chunk statistics proved irrelevant, with the deciding column."""

    uri: str
    reason: str


@dataclass(frozen=True)
class ChunkPlan:
    """The planner's contract for one rewritten actual-data scan.

    ``chunks`` is in assembly (stage-one URI) order: every executor
    fetches in it and result rows follow it, so execution stays
    bit-identical across executors.
    """

    table_name: str
    chunks: tuple[PlannedChunk, ...]
    pruned: tuple[PrunedChunk, ...] = ()

    @property
    def uris(self) -> tuple[str, ...]:
        return tuple(chunk.uri for chunk in self.chunks)

    def describe(self) -> str:
        """Multi-line rendering for ``repro explain`` and debugging."""
        lines = [
            f"chunk plan for {self.table_name}: {len(self.chunks)} to fetch, "
            f"{len(self.pruned)} pruned"
        ]
        for position, chunk in enumerate(self.chunks):
            lines.append(f"  [{position:02d}] {chunk.tier:<9} {chunk.uri}")
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
        """Prune the given candidate chunks and classify the survivors."""
        bounds = LiteralBounds.by_column(predicate) if prune else {}
        catalog = self.database.chunk_stats
        cached = self.database.recycler.cached_uris()
        stored = self.database.chunk_store.uris()

        kept: list[PlannedChunk] = []
        pruned: list[PrunedChunk] = []
        for uri in uris:
            reason = (
                self._prune_reason(catalog.get(uri), bounds) if bounds else None
            )
            if reason is not None:
                pruned.append(PrunedChunk(uri=uri, reason=reason))
            elif uri in cached:
                kept.append(PlannedChunk(uri=uri, tier=TIER_RESIDENT))
            elif uri in stored:
                kept.append(PlannedChunk(uri=uri, tier=TIER_SPILLED))
            else:
                kept.append(PlannedChunk(uri=uri, tier=TIER_REMOTE))
        with self._lock:
            self.stats.plans_built += 1
            self.stats.chunks_considered += len(uris)
            self.stats.chunks_pruned += len(pruned)
            self.stats.chunks_scheduled += len(kept)
        return ChunkPlan(
            table_name=table_name,
            chunks=tuple(kept),
            pruned=tuple(pruned),
        )

    def stats_snapshot(self) -> dict[str, int]:
        with self._lock:
            return asdict(self.stats)

    # -- pruning -----------------------------------------------------------

    @staticmethod
    def _prune_reason(stats, bounds: dict[str, LiteralBounds]) -> str | None:
        """The column whose decoded range excludes this chunk, or None.

        A chunk not yet decoded (no statistics), or without a range for
        the bounded column, always survives: pruning only ever acts on
        known-true bounds.
        """
        if stats is None:
            return None
        for column, column_bounds in bounds.items():
            column_range = stats.ranges.get(column)
            if column_range is not None and not column_bounds.may_overlap(
                *column_range
            ):
                return column
        return None
