"""Compiled-plan cache: a repeated SQL text skips bind and compile.

On resident data the front end costs more than the data does: binding and
compiling a T1 metadata question takes longer than answering it.  A
:class:`PlanCache` keeps, per exact SQL text, what the facade built for
it — the bound plan, its base tables, the catalog versions read before
compiling, and the compiled form — so a repeat goes straight to
execution.

Freshness is the catalog's write versions, the rule the result cache and
the chunk directory follow: an entry is current exactly while
:meth:`~repro.engine.catalog.Catalog.versions` still returns the versions
it was compiled at.  Join ordering reads row counts and every row change
takes a new version, so a current entry is exactly what a fresh ``bind``
+ ``compile`` would produce.  Nothing is told to invalidate; a stale
entry is dropped at its next lookup and counted.  Entries survive
``drop_caches()``, because chunk-tier churn writes no table.

The cache is an LRU of at most :data:`PLAN_CACHE_ENTRIES` texts.  One lock
guards the map and the counters; ``bind`` and ``compile`` never run under
it, so two concurrent misses may both compile — either result is valid.

The module knows nothing of plans: an entry is any value exposing
``base_tables`` and ``versions`` (the facade's
:class:`~repro.core.sommelier.CompiledSQL`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Callable, Generic, Protocol, TypeVar

from ..util.counters import Counters
from ..util.lock_sanitizer import make_lock

__all__ = ["PLAN_CACHE_ENTRIES", "PlanCache", "PlanCacheStats"]

# Distinct SQL texts kept; a serving workload repeats far fewer.
PLAN_CACHE_ENTRIES = 1024

Versions = tuple[tuple[str, int], ...]


class Versioned(Protocol):
    """What the cache needs of an entry to apply the version rule."""

    @property
    def base_tables(self) -> frozenset[str]: ...

    @property
    def versions(self) -> Versions: ...


Entry = TypeVar("Entry", bound=Versioned)


@dataclass
class PlanCacheStats(Counters):
    """Cumulative counters; ``hits + misses == lookups``."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0


class PlanCache(Generic[Entry]):
    """SQL text → compiled entry, current while its versions hold.

    ``versions`` reads the catalog's current versions of a set of tables,
    or None when one of them no longer exists (nothing over a dropped
    table is current).
    """

    # Machine-checked (repro analyze, lock-discipline).
    _GUARDED = {"_lock": ("stats", "_entries")}

    def __init__(
        self, versions: Callable[[frozenset[str]], Versions | None]
    ) -> None:
        self.capacity = PLAN_CACHE_ENTRIES
        self.stats = PlanCacheStats()
        self._versions = versions
        self._lock = make_lock("PlanCache._lock")
        self._entries: OrderedDict[str, Entry] = OrderedDict()

    def stats_snapshot(self) -> dict[str, int]:
        with self._lock:
            return {**asdict(self.stats), "entries": len(self._entries)}

    def bound(self, sql: str) -> Entry | None:
        """The entry for ``sql`` while its bound plan is current, else None.

        Checked before binding: a write to one of the entry's tables (or
        a drop and re-create with another schema) forces a fresh ``bind``.
        """
        with self._lock:
            entry = self._entries.get(sql)
            if entry is not None:
                self._entries.move_to_end(sql)
        if entry is None or self._versions(entry.base_tables) == entry.versions:
            return entry
        self._invalidate(sql, entry)
        return None

    def reuse(
        self, sql: str, entry: Entry | None, versions: Versions
    ) -> Entry | None:
        """One lookup: ``entry`` if it is still at ``versions``, else None.

        ``versions`` is read after Algorithm 1 ran, just before execution;
        on None (a miss) the caller compiles and :meth:`store`\\ s a new
        entry tagged with them.
        """
        fresh = entry is not None and entry.versions == versions
        with self._lock:
            self.stats.lookups += 1
            if fresh:
                self.stats.hits += 1
            else:
                self.stats.misses += 1
        if fresh:
            return entry
        if entry is not None:
            self._invalidate(sql, entry)
        return None

    def store(self, sql: str, entry: Entry) -> None:
        """Keep ``entry`` for ``sql``, evicting the least recently used."""
        with self._lock:
            self._entries[sql] = entry
            self._entries.move_to_end(sql)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def _invalidate(self, sql: str, entry: Entry) -> None:
        """Drop a stale entry, unless another thread already replaced it."""
        with self._lock:
            if self._entries.get(sql) is entry:
                del self._entries[sql]
                self.stats.invalidations += 1
