"""The Recycler: a tiered, budgeted, thread-safe cache for loaded chunks.

The paper reuses MonetDB's Recycler [Ivanova et al., SIGMOD'09] to cache the
actual data ingested by ``chunk-access`` operators so that subsequent queries
can use the cheap ``cache-scan`` access path instead (Sections III & V).

This module implements that component with one replacement order: the
least recently used resident entry is evicted first.  Entries are keyed by
chunk URI and hold the decoded :class:`Table` for that chunk — its rows,
nothing else.  (Section VIII's cost-aware "smarter caching" was tried here
and retracted: it loaded no fewer chunks than LRU; see the README.)

Tiering (the persistent-recycler work): the in-memory budgeted tier is
optionally backed by a :class:`~repro.engine.chunk_store.ChunkStore`.
Eviction *spills* the decoded chunk to the store instead of discarding it;
a later miss in RAM *re-hydrates* the chunk from the store as zero-copy
mmap-backed columns — far cheaper than a Steim re-decode — and a database
reopened over the same directory comes back warm.  Byte accounting is
two-dimensional: ``bytes_cached`` counts only heap-resident bytes against
the budget, while ``bytes_mapped`` reports the mmap-backed volume whose
pages are owned by the store files (never double-counted).

Concurrency model (the concurrent-serving work):

* every entry/stats/byte-accounting mutation happens under one internal
  mutex, so :class:`RecyclerStats` and ``bytes_cached`` stay exact no
  matter how many threads hammer the cache;
* chunk *loading* is coordinated by lock-striped single-flight slots:
  concurrent :meth:`get_or_load` calls for the same URI wait on the one
  thread that is decoding (or re-hydrating) it — each chunk is decoded
  exactly once across both tiers — while loads of different URIs proceed
  fully in parallel;
* spills run outside the entry mutex (disk writes never stall the cache),
  after the victim has already left the memory tier.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Callable

from .errors import StorageError
from .table import Table
from ..util.counters import Counters
from ..util.lock_sanitizer import Lockable, make_lock, make_rlock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .chunk_store import ChunkStore

__all__ = ["RecyclerEntry", "RecyclerStats", "Recycler"]

# How many independent single-flight stripes coordinate in-flight loads.
# URIs hash onto stripes; loads of URIs on different stripes never contend.
STRIPE_COUNT = 16


@dataclass
class RecyclerEntry:
    """One cached chunk.

    ``nbytes`` is the logical (decoded) size; ``resident_nbytes`` is the
    heap share of it — 0 for a fully mmap-backed re-hydrated chunk, whose
    pages belong to the chunk-store file.
    """

    uri: str
    table: Table
    nbytes: int
    resident_nbytes: int = -1
    last_access: float = field(default_factory=time.monotonic)

    def __post_init__(self) -> None:
        if self.resident_nbytes < 0:
            self.resident_nbytes = self.nbytes


@dataclass
class RecyclerStats(Counters):
    """Counters for experiments (cache effectiveness, Section VI-C hot runs).

    ``coalesced`` counts :meth:`Recycler.get_or_load` calls that piggybacked
    on another thread's in-flight load of the same URI instead of decoding
    the chunk themselves.  ``rehydrates`` counts owner loads satisfied from
    the disk tier (mmap re-hydrate) instead of the loader; ``spills`` counts
    evicted entries persisted to the disk tier.
    """

    hits: int = 0
    misses: int = 0
    coalesced: int = 0
    insertions: int = 0
    evictions: int = 0
    bytes_evicted: int = 0
    rehydrates: int = 0
    spills: int = 0
    bytes_spilled: int = 0
    spill_errors: int = 0


class _InflightLoad:
    """Single-flight slot: the loading thread publishes here, waiters block."""

    __slots__ = ("event", "table", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.table: Table | None = None
        self.error: BaseException | None = None


class Recycler:
    """Size-budgeted chunk cache that evicts the least recently used entry.

    The budget mirrors the paper's workload experiments, which "limit the
    size of the recycler cache holding the lazily loaded files to the size
    of main memory" (Section VI-E).  Only heap-resident bytes count against
    it; mmap-backed re-hydrated chunks ride for free (their pages are the
    store's).

    All public methods are safe to call from multiple threads.
    """

    # Machine-checked (repro analyze, lock-discipline): the exact byte
    # accounting only holds if every write happens under the entry mutex.
    _GUARDED = {"_lock": ("_bytes_cached", "_bytes_mapped")}

    def __init__(
        self,
        budget_bytes: int = 1 << 30,
        store: "ChunkStore | None" = None,
        spill_on_evict: bool = True,
    ) -> None:
        if budget_bytes <= 0:
            raise StorageError("recycler budget must be positive")
        self.budget_bytes = budget_bytes
        self.store = store
        self.spill_on_evict = spill_on_evict
        self.stats = RecyclerStats()
        self._entries: dict[str, RecyclerEntry] = {}
        self._bytes_cached = 0
        self._bytes_mapped = 0
        # Spill-vs-invalidate coordination: URIs whose spill is pending or
        # in progress, and those invalidated while it was.  A chunk that is
        # invalidated mid-spill must not be resurrected by the spill.
        self._spilling: set[str] = set()
        self._spill_invalidated: set[str] = set()
        # One mutex guards entries + stats + byte accounting (exactness);
        # striped locks guard only the single-flight load coordination, so
        # waiting on one URI's decode never blocks another URI's.
        self._lock = make_rlock("Recycler._lock")
        self._stripes = [make_lock("Recycler._stripes") for _ in range(STRIPE_COUNT)]
        self._inflight: list[dict[str, _InflightLoad]] = [
            {} for _ in range(STRIPE_COUNT)
        ]

    def _stripe_of(self, uri: str) -> tuple[Lockable, dict[str, _InflightLoad]]:
        index = hash(uri) % STRIPE_COUNT
        return self._stripes[index], self._inflight[index]

    # -- introspection -----------------------------------------------------

    @property
    def bytes_cached(self) -> int:
        """Heap-resident bytes charged against the budget."""
        with self._lock:
            return self._bytes_cached

    @property
    def bytes_mapped(self) -> int:
        """Mmap-backed bytes of re-hydrated entries (owned by the store)."""
        with self._lock:
            return self._bytes_mapped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, uri: str) -> bool:
        with self._lock:
            return uri in self._entries

    def cached_uris(self) -> set[str]:
        """The set C of chunks resident in the memory tier.

        The chunk planner reads it only to label a planned chunk
        ``resident`` for ``repro explain``; every fetch asks the recycler
        itself, which serves memory, then disk, then the loader.
        """
        with self._lock:
            return set(self._entries)

    def entries(self) -> list[RecyclerEntry]:
        """A snapshot of the current entries (stable under concurrent use)."""
        with self._lock:
            return list(self._entries.values())

    def tier_stats(self) -> dict[str, dict[str, int]]:
        """Per-tier counters for ``repro cache`` and the benchmarks."""
        with self._lock:
            memory = {
                "entries": len(self._entries),
                "budget_bytes": self.budget_bytes,
                "bytes_resident": self._bytes_cached,
                "bytes_mapped": self._bytes_mapped,
                **asdict(self.stats),
            }
        if self.store is None:
            disk: dict[str, int] = {"enabled": 0}
        else:
            disk = {"enabled": 1}
            disk.update(self.store.tier_stats())
        return {"memory": memory, "disk": disk}

    # -- cache protocol ------------------------------------------------------

    def get(self, uri: str) -> Table | None:
        """Cache-scan: the chunk's table, or None on a memory-tier miss."""
        with self._lock:
            entry = self._entries.get(uri)
            if entry is None:
                self.stats.misses += 1
                return None
            entry.last_access = time.monotonic()
            self.stats.hits += 1
            return entry.table

    def _peek(self, uri: str) -> Table | None:
        """Like :meth:`get` but records only hits, never a miss.

        Used by :meth:`get_or_load`, whose lookups are provisional: each
        call contributes exactly one of hit / rehydrated / miss / coalesced
        to the stats, decided only once the outcome is known.
        """
        with self._lock:
            entry = self._entries.get(uri)
            if entry is None:
                return None
            entry.last_access = time.monotonic()
            self.stats.hits += 1
            return entry.table

    def put(self, uri: str, table: Table) -> bool:
        """Admit a freshly loaded chunk; returns False if it cannot fit.

        A chunk whose *resident* size exceeds the whole budget is never
        admitted (it would evict everything for a single-use entry); fully
        mmap-backed chunks are resident-free and always admissible.  Evicted
        victims are spilled to the disk tier after the entry mutex is
        released.
        """
        nbytes = table.nbytes
        resident = table.resident_nbytes
        if resident > self.budget_bytes:
            return False
        victims: list[RecyclerEntry] = []
        with self._lock:
            existing = self._entries.pop(uri, None)
            if existing is not None:
                self._bytes_cached -= existing.resident_nbytes
                self._bytes_mapped -= existing.nbytes - existing.resident_nbytes
            self._evict_until_fits(resident, victims)
            self._entries[uri] = RecyclerEntry(
                uri=uri, table=table, nbytes=nbytes, resident_nbytes=resident
            )
            self._bytes_cached += resident
            self._bytes_mapped += nbytes - resident
            self.stats.insertions += 1
        self._spill_entries(victims)
        return True

    def get_or_load(
        self, uri: str, loader: Callable[[str], Table]
    ) -> tuple[Table, str]:
        """The single-flight chunk-access path across both tiers.

        Returns ``(table, outcome)`` with outcome one of:

        * ``"hit"`` — the chunk was in the memory tier;
        * ``"rehydrated"`` — the chunk was mmap-re-hydrated from the disk
          tier (and re-admitted to the memory tier, resident-free);
        * ``"loaded"`` — this call decoded the chunk (and admitted it);
        * ``"coalesced"`` — another thread was already decoding or
          re-hydrating the same URI; this call waited for that result.

        ``loader(uri)`` returns the chunk's table; it runs outside
        every recycler lock so independent loads overlap freely.  A loader
        failure is propagated to the owner and every coalesced waiter.

        Each call counts exactly one of hit / rehydrated / miss / coalesced
        in the stats, so the ratios stay exact under contention.
        """
        cached = self._peek(uri)
        if cached is not None:
            return cached, "hit"

        stripe_lock, inflight = self._stripe_of(uri)
        with stripe_lock:
            flight = inflight.get(uri)
            if flight is None:
                # Re-check the cache before taking ownership: a flight that
                # completed between our first probe and this point has
                # already admitted the table, and decoding again would break
                # the exactly-once guarantee.  (Lock order stripe → global
                # is uniform across the class, so this nesting is safe.)
                cached = self._peek(uri)
                if cached is not None:
                    return cached, "hit"
                flight = _InflightLoad()
                inflight[uri] = flight
                is_owner = True
            else:
                is_owner = False

        if not is_owner:
            flight.event.wait()
            if flight.error is not None or flight.table is None:
                raise flight.error or StorageError(
                    f"in-flight load of {uri!r} produced no table"
                )
            with self._lock:
                self.stats.coalesced += 1
            return flight.table, "coalesced"

        try:
            # Disk tier first: a spilled or restart-surviving chunk is a
            # cheap mmap re-hydrate, not a re-decode.  The probe runs inside
            # the flight, so concurrent callers coalesce on it too.
            table = self.store.get(uri) if self.store is not None else None
            if table is not None:
                with self._lock:
                    self.stats.rehydrates += 1
                outcome = "rehydrated"
            else:
                with self._lock:
                    self.stats.misses += 1
                table = loader(uri)
                outcome = "loaded"
            flight.table = table
            self.put(uri, table)
            return table, outcome
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with stripe_lock:
                inflight.pop(uri, None)
            flight.event.set()

    def invalidate(self, uri: str) -> None:
        """Drop a chunk from both tiers (its source data changed)."""
        with self._lock:
            entry = self._entries.pop(uri, None)
            if entry is not None:
                self._bytes_cached -= entry.resident_nbytes
                self._bytes_mapped -= entry.nbytes - entry.resident_nbytes
            if uri in self._spilling:
                # An evicted copy is being written to the store right now;
                # flag it so the spiller deletes its own write.
                self._spill_invalidated.add(uri)
        if self.store is not None:
            self.store.delete(uri)

    def clear(self, spilled: bool = True) -> None:
        """Drop the memory tier; with ``spilled`` also the disk tier.

        ``clear()`` is the experiments' fully-cold protocol ("restart the
        server, flush buffers"); ``clear(spilled=False)`` models a process
        restart over a surviving store directory.
        """
        with self._lock:
            self._entries.clear()
            self._bytes_cached = 0
            self._bytes_mapped = 0
        if spilled and self.store is not None:
            self.store.clear()

    def flush_to_store(self) -> int:
        """Persist every memory-tier entry not yet on disk; returns count.

        Called by the checkpoint path so a cleanly closed database comes
        back warm even for chunks that were never evicted.
        """
        if self.store is None:
            return 0
        flushed = 0
        for entry in self.entries():
            if entry.uri not in self.store:
                self._spill_one(entry)
                flushed += 1
        return flushed

    # -- replacement ---------------------------------------------------------

    def _evict_until_fits(
        self, incoming: int, victims: list[RecyclerEntry]
    ) -> None:
        # Caller holds self._lock.  Only resident entries are candidates:
        # evicting an mmap-backed entry frees no heap bytes.
        while self._entries and self._bytes_cached + incoming > self.budget_bytes:
            victim = self._least_recently_used()
            if victim is None:
                break
            entry = self._entries.pop(victim)
            self._bytes_cached -= entry.resident_nbytes  # repro: ignore[lock-discipline]
            self._bytes_mapped -= entry.nbytes - entry.resident_nbytes  # repro: ignore[lock-discipline]
            self.stats.evictions += 1
            self.stats.bytes_evicted += entry.nbytes
            # Marked before the lock is released so an invalidate() racing
            # the upcoming (unlocked) spill can flag it as doomed.
            self._spilling.add(entry.uri)
            victims.append(entry)

    def _least_recently_used(self) -> str | None:
        candidates = [
            e for e in self._entries.values() if e.resident_nbytes > 0
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda e: e.last_access).uri

    # -- spilling ------------------------------------------------------------

    def _spill_entries(self, victims: list[RecyclerEntry]) -> None:
        if self.store is None or not self.spill_on_evict:
            if victims:
                with self._lock:
                    for entry in victims:
                        self._spilling.discard(entry.uri)
                        self._spill_invalidated.discard(entry.uri)
            return
        for entry in victims:
            self._spill_one(entry)

    def _spill_one(self, entry: RecyclerEntry) -> None:
        assert self.store is not None
        uri = entry.uri
        with self._lock:
            self._spilling.add(uri)  # idempotent (evictions pre-marked)
        written = 0
        failed = False
        try:
            if uri not in self.store:
                try:
                    written = self.store.put(uri, entry.table)
                except (OSError, StorageError):
                    # A failed spill only loses a cache opportunity, never
                    # data: the chunk is still decodable from the
                    # repository.
                    failed = True
        finally:
            with self._lock:
                self._spilling.discard(uri)
                doomed = uri in self._spill_invalidated
                self._spill_invalidated.discard(uri)
                if failed:
                    self.stats.spill_errors += 1
                elif written:
                    self.stats.spills += 1
                    self.stats.bytes_spilled += written
        if doomed:
            # Invalidated while we were writing: never resurrect it.
            self.store.delete(uri)
