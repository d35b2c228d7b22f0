"""Sessions and connection pooling for concurrent query serving.

The paper's setting — a BDMS serving "heavy traffic" over a shared file
repository — needs more than a thread-safe engine: each client wants its
own accounting while catalog, Recycler and buffer pool stay shared.  A
:class:`SommelierSession` is that per-client handle; a :class:`SessionPool`
is the bounded connection-pool facade a server front end would check
sessions out of.

Typical use::

    db, _ = prepare("lazy", repository)
    pool = db.session_pool(size=8)

    def worker(sql: str):
        with pool.session() as session:
            return session.query(sql)

All session state is thread-confined (one session must not be used by two
threads at once — exactly the contract of a DB-API connection); everything
shared underneath is synchronized by the engine.
"""

from __future__ import annotations

import queue
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from ..engine.errors import ExecutionError
from ..engine.physical import ExecStats
from ..util.lock_sanitizer import make_lock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .partial_views import DerivationReport
    from .sommelier import SommelierDB
    from .two_stage import QueryResult

__all__ = ["SommelierSession", "SessionPool"]


class SommelierSession:
    """One client's handle on a shared :class:`SommelierDB`.

    Queries execute on the shared engine (one compiler, one recycler, one
    buffer pool); the session accumulates its own
    :class:`~repro.core.sommelier.SommelierStats` and
    :class:`~repro.engine.physical.ExecStats` so per-client cost is
    attributable even when many sessions run concurrently.
    """

    def __init__(self, db: "SommelierDB", session_id: int) -> None:
        from .sommelier import SommelierStats

        self.db = db
        self.session_id = session_id
        self.stats = SommelierStats()
        self.exec_stats = ExecStats()
        self._closed = False

    # -- querying ----------------------------------------------------------

    def query(self, sql: str, cancel=None) -> "QueryResult":
        result, _ = self.query_with_derivation(sql, cancel=cancel)
        return result

    def query_with_derivation(
        self, sql: str, cancel=None
    ) -> tuple["QueryResult", "DerivationReport"]:
        if self._closed:
            raise ExecutionError(
                f"session {self.session_id} is closed"
            )
        # The session id reaches the facade so the workload prefetcher can
        # keep per-session history (which client is walking forward where).
        result, derivation = self.db.query_with_derivation(
            sql, session_id=self.session_id, cancel=cancel
        )
        self._accumulate(result, derivation)
        return result, derivation

    def explain(self, sql: str) -> str:
        return self.db.explain(sql)

    def _accumulate(
        self, result: "QueryResult", derivation: "DerivationReport"
    ) -> None:
        from .sommelier import SommelierStats

        self.stats.merge(SommelierStats.delta_from(result, derivation))
        self.exec_stats.merge(result.stats)

    # -- lifecycle ---------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def reset_stats(self) -> None:
        """Zero the per-session counters (pool reuse between clients)."""
        from .sommelier import SommelierStats

        self.stats = SommelierStats()
        self.exec_stats = ExecStats()

    def close(self) -> None:
        self._closed = True

    def __enter__(self) -> "SommelierSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SessionPool:
    """A bounded pool of reusable sessions over one shared database.

    ``size`` caps how many sessions are ever live at once; checking one out
    blocks when all are busy, which doubles as admission control for a
    server front end.  Sessions are reused across checkouts with their
    counters reset, DB-API-connection-pool style.
    """

    # Machine-checked (repro analyze, lock-discipline): the size cap only
    # holds if creation/checkout accounting is serialized.
    _GUARDED = {"_lock": ("_created", "_checked_out")}

    def __init__(self, db: "SommelierDB", size: int = 4) -> None:
        if size <= 0:
            raise ExecutionError("session pool size must be positive")
        self.db = db
        self.size = size
        # ``None`` in the queue is close()'s wake-up for blocked waiters.
        self._idle: "queue.LifoQueue[SommelierSession | None]" = (
            queue.LifoQueue()
        )
        self._created = 0
        self._checked_out = 0
        self._lock = make_lock("SessionPool._lock")
        self._closed = False

    def acquire(self, timeout: float | None = None) -> SommelierSession:
        """Check a session out; blocks up to ``timeout`` when all are busy.

        A waiter still blocked when the pool closes raises instead of
        waiting for a session that will never be re-queued.
        """
        session = self.try_acquire()
        if session is not None:
            return session
        try:
            return self._check_out(self._idle.get(timeout=timeout))
        except queue.Empty:
            raise ExecutionError(
                f"no session became free within {timeout}s "
                f"(pool size {self.size})"
            ) from None

    def try_acquire(self) -> SommelierSession | None:
        """Non-blocking checkout: a session, or None when all are busy.

        The admission-control hook for an async front end: the event loop
        must never park a coroutine inside the blocking :meth:`acquire`, so
        saturation is answered with backpressure instead of queuing here.
        """
        if self._closed:
            raise ExecutionError("session pool is closed")
        try:
            return self._check_out(self._idle.get_nowait())
        except queue.Empty:
            pass
        with self._lock:
            if self._created >= self.size:
                return None
            self._created += 1
            session = self.db.session()
        return self._check_out(session)

    def _check_out(self, session: SommelierSession | None) -> SommelierSession:
        if session is None:
            # close()'s wake-up: pass it on to the next blocked waiter.
            self._idle.put(None)
            raise ExecutionError("session pool is closed")
        with self._lock:
            self._checked_out += 1
        return session

    def stats(self) -> dict[str, int]:
        """Checkout-level counters (what a ``/stats`` endpoint reports)."""
        with self._lock:
            checked_out = self._checked_out
            created = self._created
        return {
            "size": self.size,
            "created": created,
            "in_use": checked_out,
            "idle": created - checked_out,
        }

    def release(self, session: SommelierSession) -> None:
        """Return a checked-out session; its counters are reset for reuse.

        Returning to a closed pool closes the session instead of re-queueing
        it — closure is terminal even for sessions in flight at close time.
        A session the client closed itself is discarded (its slot frees up
        for a fresh session) rather than re-queued unusable.
        """
        with self._lock:
            if self._checked_out > 0:
                self._checked_out -= 1
        if self._closed:
            session.close()
            return
        if session.closed:
            # Replace rather than just discard: a waiter blocked on the
            # idle queue would otherwise starve with capacity to spare.
            self._idle.put(self.db.session())
            return
        session.reset_stats()
        self._idle.put(session)

    @contextmanager
    def session(
        self, timeout: float | None = None
    ) -> Iterator[SommelierSession]:
        checked_out = self.acquire(timeout=timeout)
        try:
            yield checked_out
        finally:
            self.release(checked_out)

    def close(self) -> None:
        self._closed = True
        while True:
            try:
                session = self._idle.get_nowait()
            except queue.Empty:
                break
            if session is not None:
                session.close()
        # Wake blocked acquire()s; each one passes the wake-up on.
        self._idle.put(None)

    def __enter__(self) -> "SessionPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
