"""Workload-aware chunk prefetching — the sommelier recommending the
next bottle.

Serving workloads over a remote repository are latency-bound: every cold
chunk pays a network fetch plus a Steim decode at the moment a query needs
it.  But real sessions are not random — a client analysing a seismic event
walks forward through time, station by station.  The
:class:`WorkloadPrefetcher` exploits that: after every query it looks at
the chunks the session just touched, predicts the chunks that *follow
them in time* for the same instrument, and warms the recycler through the
shared I/O pool while the client is thinking.  A later query that needs a
prefetched chunk finds it resident (or, at worst, coalesces with the
in-flight prefetch through the recycler's single-flight slot — the work is
never duplicated).

Per-session history gates how aggressively we reach ahead: a session seen
moving forward through time repeatedly earns the full configured depth,
a fresh or jumping-around session only one chunk.  Everything here is
advisory — prefetching can only ever move load costs off the query path,
never change a result.
"""

from __future__ import annotations

from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Hashable, Mapping

from ..util.counters import Counters
from ..util.lock_sanitizer import make_lock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.database import Database

__all__ = ["PrefetchStats", "WorkloadPrefetcher"]


@dataclass
class PrefetchStats(Counters):
    """Cumulative counters (``repro cache`` and the pruning benchmark)."""

    issued: int = 0
    completed: int = 0
    failed: int = 0
    hits: int = 0


@dataclass
class _SessionHistory:
    """What a session did last, per (station, channel) group."""

    last_max_time: dict[tuple[str, str], int]
    forward_streak: int = 0


class WorkloadPrefetcher:
    """Predicts and warms the chunks a session is likely to need next."""

    # Machine-checked: the future list swaps atomically (repro analyze,
    # lock-discipline) and no warm-up I/O runs under it
    # (REPRO_LOCK_SANITIZER=1).
    _GUARDED = {"_lock": ("_futures",)}

    def __init__(
        self,
        database: "Database",
        table_name: str = "D",
        depth: int = 2,
        io_threads: int = 2,
        max_warmed: int = 1024,
    ) -> None:
        self.database = database
        self.table_name = table_name
        self.depth = max(1, depth)
        self.io_threads = max(1, io_threads)
        self.stats = PrefetchStats()
        self._lock = make_lock("WorkloadPrefetcher._lock")
        # Per-session history, keyed by the caller's client id and
        # bounded: long-running serving sees an unbounded stream of
        # clients, so the least-recently-active histories are evicted
        # once the cap is reached.
        self._sessions: "OrderedDict[Hashable, _SessionHistory]" = (
            OrderedDict()
        )
        self._max_sessions = 512
        # Warmed-URI bookkeeping, LRU-bounded like the session map: a URI
        # that is warmed but then planner-pruned by every later query
        # would otherwise sit in the set forever in a long-running server.
        # Values are unused; OrderedDict is the insertion-ordered LRU.
        self._warmed: "OrderedDict[str, None]" = OrderedDict()
        self._max_warmed = max(1, max_warmed)
        self._inflight: set[str] = set()
        self._futures: list[Future] = []

    # -- the serving-path hooks --------------------------------------------

    def record_hits(self, outcomes: "Mapping[str, str]") -> int:
        """How many of a query's chunks a prefetch had warmed *and kept*.

        ``outcomes`` maps each chunk the query fetched to how the cache
        that served it answered (``QueryResult.chunk_outcomes``).
        A warmed chunk served as a ``"hit"`` is a prefetch hit; any other
        outcome means the warm copy was gone, so the URI leaves the warmed
        set.  A warmed chunk the planner *pruned* was never fetched: it is
        neither a hit nor forgotten.

        Each warm counts as a hit at most once: the first query served
        from a warmed chunk consumes its warmed status (a dashboard
        re-reading the same resident chunk every few seconds must not
        inflate ``stats.hits`` — the first hit is the prefetcher's
        contribution, the rest are the recycler's).  A later re-warm of
        the same URI earns a fresh hit.
        """
        hits = 0
        with self._lock:
            for uri, outcome in outcomes.items():
                if uri not in self._warmed:
                    continue
                # Consumed by this hit, or the warm copy is gone.
                del self._warmed[uri]
                if outcome == "hit":
                    hits += 1
            self.stats.hits += hits
        return hits

    def note_query(
        self, session_id: Hashable, required_uris: list[str]
    ) -> list[str]:
        """Update session history, predict successors, and warm them.

        Returns the URIs submitted for prefetch (mainly for tests).
        """
        if not required_uris:
            return []
        predictions = self._predict(session_id, required_uris)
        if not predictions:
            return []
        submitted: list[str] = []
        recycler = self.database.recycler
        pool = self.database.io_executor(self.io_threads)
        with self._lock:
            for uri in predictions:
                if uri in self._inflight or uri in recycler:
                    continue
                self._inflight.add(uri)
                self.stats.issued += 1
                submitted.append(uri)
        futures = [pool.submit(self._warm_one, uri) for uri in submitted]
        with self._lock:
            self._futures = [f for f in self._futures if not f.done()]
            self._futures.extend(futures)
        return submitted

    def wait_idle(self, timeout: float | None = None) -> None:
        """Block until every issued prefetch settled (tests, benchmarks)."""
        with self._lock:
            pending = list(self._futures)
            self._futures.clear()
        for future in pending:
            try:
                future.result(timeout=timeout)
            # failures were already counted by _warm_one's stats.failed
            # accounting; this loop only drains the futures.
            # repro: ignore[swallow]
            except Exception:
                pass

    def stats_snapshot(self) -> dict[str, int]:
        with self._lock:
            return asdict(self.stats)

    # -- prediction --------------------------------------------------------

    def _predict(
        self, session_id: Hashable, required_uris: list[str]
    ) -> list[str]:
        """Successor chunks of the touched set, scaled by session history."""
        directory = self.database.chunk_directory()
        with self._lock:
            history = self._sessions.get(session_id)
            # The newest chunk per instrument group this query touched.
            frontier: dict[tuple[str, str], tuple[int, str]] = {}
            for uri in required_uris:
                entry = directory.entries.get(uri)
                if entry is None:
                    continue
                station, channel, when = entry
                group = (station, channel)
                best = frontier.get(group)
                if best is None or when > best[0]:
                    frontier[group] = (when, uri)
            if not frontier:
                return []
            moved_forward = False
            if history is not None:
                for group, (when, _) in frontier.items():
                    previous = history.last_max_time.get(group)
                    if previous is not None and when > previous:
                        moved_forward = True
            if history is None:
                history = _SessionHistory(last_max_time={})
                self._sessions[session_id] = history
                while len(self._sessions) > self._max_sessions:
                    self._sessions.popitem(last=False)
            else:
                self._sessions.move_to_end(session_id)
            history.forward_streak = (
                history.forward_streak + 1 if moved_forward else 1
            )
            for group, (when, _) in frontier.items():
                prior = history.last_max_time.get(group)
                if prior is None or when > prior:
                    history.last_max_time[group] = when
            depth = min(self.depth, history.forward_streak)
            required = set(required_uris)
            predictions: list[str] = []
            for _, uri in sorted(frontier.values()):
                cursor = uri
                for _ in range(depth):
                    cursor = directory.successors.get(cursor)
                    if cursor is None:
                        break
                    # Residency (not warming history) decides skipping, so
                    # a warmed-then-evicted chunk is warmable again; the
                    # recycler check happens at submission time.
                    if cursor not in required:
                        predictions.append(cursor)
            return predictions

    # -- the warming task --------------------------------------------------

    def _warm_one(self, uri: str) -> None:
        try:
            self.database.fetch_chunk(uri, self.table_name)
        except Exception:
            with self._lock:
                self.stats.failed += 1
        else:
            with self._lock:
                self.stats.completed += 1
                self._warmed[uri] = None
                self._warmed.move_to_end(uri)
                while len(self._warmed) > self._max_warmed:
                    self._warmed.popitem(last=False)
        finally:
            with self._lock:
                self._inflight.discard(uri)
