"""Runtime concurrency sanitizer.

Every lock in the engine is constructed through :func:`make_lock` /
:func:`make_rlock` with a stable, human-readable name (``"Recycler._lock"``,
``"Database._scans_lock"``, ...).  By default the factories return plain
``threading`` primitives — zero overhead, nothing recorded, nothing
installed.  When the ``REPRO_LOCK_SANITIZER`` environment variable is set to
a non-empty value other than ``"0"``, they instead return
:class:`SanitizedLock` wrappers, and the sanitizer enforces four checks:

* **lock order** — every *order edge* ``(held, acquired)`` goes into one
  global graph, and acquiring locks in an order that inverts a previously
  observed edge raises :class:`LockOrderViolation`.  The edge is checked
  before blocking, so a potential deadlock is reported deterministically
  even when the interleaving that would hang never happens in this run;
* **self-deadlock** — re-acquiring a held non-reentrant lock raises
  :class:`LockOrderViolation` instead of hanging;
* **blocking under a hot lock** — a *hot* lock is one whose owner's class
  names it in a ``_GUARDED`` registry (the same registry the
  ``lock-discipline`` checker reads).  Hot locks serialize counter updates
  and pointer swaps every concurrent query crosses, so blocking while one
  is held raises :class:`BlockingViolation`;
* **blocking on the event loop** — the same blocking calls on a thread
  whose asyncio loop is running raise :class:`BlockingViolation`.

"Blocking" is observed at runtime, not inferred: the ``sys.addaudithook``
events in :data:`BLOCKING_EVENTS` (file opens, ``time.sleep`` — audited
from Python 3.13 on, so older interpreters do not see a sleep —
subprocesses, renames/removes, ``socket.connect``), plus waits on a pending
``concurrent.futures.Future.result`` / ``threading.Event.wait`` called from
code under ``repro`` (standard-library internals such as
``Thread.start()`` waiting for its thread to boot are not counted).  Callees
the static call graph could not resolve — a ``loader`` callable passed in as
a parameter — are seen like any other call, which is why these checks are
runtime ones.  Not checked: waiting for a contended lock (a bare
``acquire()`` on the event loop) and submitting to a pool under a hot lock.

The blocking checks are installed once per process, by the first factory
call with the sanitizer on, and do nothing while the flag is unset.

Every violation is also recorded (:func:`recorded_violations`), so a
broad ``except`` in the engine cannot hide one from the test suite.

Identity is *name-level*, not object-level: two instances of the same class
share lock names, so an inversion between ``db1.recycler._lock`` and
``db2.recycler._lock`` is reported even though the objects differ.  That is
deliberate — the order contract is per class — but it means independent
same-named locks that are legitimately nested must be given distinct names
(the Recycler's stripes share one ``"Recycler._stripes"`` name because
stripes are never nested within each other).
"""

from __future__ import annotations

import concurrent.futures
import functools
import os
import sys
import threading
from types import FrameType
from typing import Any, Callable, List, Protocol, Tuple

ENV_FLAG = "REPRO_LOCK_SANITIZER"

# Audit events that block the calling thread (``os.replace`` is audited as
# ``os.rename``, ``os.unlink`` as ``os.remove``).
BLOCKING_EVENTS = frozenset(
    {
        "open",
        "time.sleep",
        "subprocess.Popen",
        "os.system",
        "os.rename",
        "os.remove",
        "shutil.rmtree",
        "socket.connect",
    }
)

_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

__all__ = [
    "BLOCKING_EVENTS",
    "BlockingViolation",
    "ENV_FLAG",
    "LockOrderViolation",
    "Lockable",
    "SanitizedLock",
    "make_lock",
    "make_rlock",
    "observed_edges",
    "recorded_violations",
    "reset_observed_edges",
    "reset_violations",
    "sanitizer_enabled",
]


class LockOrderViolation(RuntimeError):
    """Two locks were acquired in inconsistent orders (potential deadlock)."""


class BlockingViolation(RuntimeError):
    """A blocking call ran under a hot lock or on a running event loop."""


class Lockable(Protocol):
    """Structural type shared by ``threading`` locks and sanitized wrappers."""

    def acquire(self, blocking: bool = ..., timeout: float = ...) -> bool: ...

    def release(self) -> None: ...

    def __enter__(self) -> bool: ...

    def __exit__(self, *exc: object) -> None: ...


def sanitizer_enabled() -> bool:
    """True when the process should hand out instrumented locks."""
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


_VIOLATIONS: List[str] = []


def _report(exc: RuntimeError) -> RuntimeError:
    """Record a violation before it is raised (``list.append`` is atomic)."""
    _VIOLATIONS.append(f"{type(exc).__name__}: {exc}")
    return exc


def recorded_violations() -> List[str]:
    """Every violation raised in this process since the last reset."""
    return list(_VIOLATIONS)


def reset_violations() -> None:
    """Forget recorded violations (test isolation helper)."""
    _VIOLATIONS.clear()


class _OrderGraph:
    """Global dynamic lock-order edge graph.

    An edge ``a -> b`` means "some thread held *a* while acquiring *b*"; the
    witness string records where.  Guarded by a raw ``threading.Lock`` (not a
    sanitized one) so the sanitizer can never recurse into itself.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._edges: dict[Tuple[str, str], str] = {}

    def record(self, held: Tuple[str, ...], name: str) -> None:
        if not held:
            return
        thread = threading.current_thread().name
        witness = f"thread {thread!r} held [{', '.join(held)}] acquiring {name!r}"
        with self._mutex:
            for h in held:
                if h == name:
                    continue
                inverse = self._edges.get((name, h))
                if inverse is not None:
                    raise _report(
                        LockOrderViolation(
                            f"lock order inversion: {h!r} -> {name!r} "
                            f"({witness}) contradicts previously observed "
                            f"{name!r} -> {h!r} ({inverse})"
                        )
                    )
                self._edges.setdefault((h, name), witness)

    def edges(self) -> List[Tuple[str, str]]:
        with self._mutex:
            return sorted(self._edges)

    def reset(self) -> None:
        with self._mutex:
            self._edges.clear()


_GRAPH = _OrderGraph()


def observed_edges() -> List[Tuple[str, str]]:
    """Snapshot of all ``(held, acquired)`` edges seen so far in this process."""
    return _GRAPH.edges()


def reset_observed_edges() -> None:
    """Clear the global edge graph (test isolation helper)."""
    _GRAPH.reset()


class _HeldStacks(threading.local):
    def __init__(self) -> None:
        self.stack: List["SanitizedLock"] = []


_HELD = _HeldStacks()


# -- blocking checks ------------------------------------------------------

_INSTALL_LOCK = threading.Lock()
_installed = False


def _check_blocking(call: str) -> None:
    """Raise when ``call`` would block a hot lock holder or an event loop."""
    if not sanitizer_enabled():
        return
    for lock in _HELD.stack:
        if lock.hot:
            raise _report(
                BlockingViolation(
                    f"{call} while holding hot lock {lock.name!r} "
                    f"(thread {threading.current_thread().name!r})"
                )
            )
    import asyncio  # loaded by _install_blocking_checks: a dict lookup here

    if asyncio._get_running_loop() is not None:
        raise _report(
            BlockingViolation(
                f"{call} on the event loop thread "
                f"{threading.current_thread().name!r}"
            )
        )


def _audit(event: str, args: Tuple[Any, ...]) -> None:
    if event not in BLOCKING_EVENTS:
        return
    if event == "open" and str(args[0]).endswith((".py", ".pyc")):
        # Reading code — a lazy import, or the source lines of a
        # traceback being formatted — is not the engine blocking.
        return
    _check_blocking(f"{event}({args[0]!r})")


def _from_package(frame: FrameType | None) -> bool:
    return frame is not None and frame.f_code.co_filename.startswith(
        _PACKAGE_DIR + os.sep
    )


def _guard_wait(
    original: Callable[..., Any], pending: Callable[[Any], bool]
) -> Callable[..., Any]:
    @functools.wraps(original)
    def wait(self: Any, *args: Any, **kwargs: Any) -> Any:
        if pending(self) and _from_package(sys._getframe(1)):
            _check_blocking(original.__qualname__)
        return original(self, *args, **kwargs)

    return wait


def _install_blocking_checks() -> None:
    """Install the audit hook and wait guards, once per process."""
    global _installed
    with _INSTALL_LOCK:
        if _installed:
            return
        import asyncio  # noqa: F401  (loaded before any hook can ask)

        sys.addaudithook(_audit)
        threading.Event.wait = _guard_wait(  # type: ignore[method-assign]
            threading.Event.wait, lambda event: not event.is_set()
        )
        concurrent.futures.Future.result = _guard_wait(  # type: ignore[method-assign]
            concurrent.futures.Future.result, lambda future: not future.done()
        )
        _installed = True


class SanitizedLock:
    """Instrumented lock recording acquisition order per thread.

    Wraps a plain ``Lock`` (or ``RLock`` when ``reentrant=True``) and checks
    the global order graph *before* blocking, so an inversion is reported even
    on schedules where the real deadlock would not have materialized.  A
    ``hot`` lock additionally forbids blocking calls while it is held.
    """

    __slots__ = ("name", "hot", "_reentrant", "_inner")

    def __init__(
        self, name: str, *, reentrant: bool = False, hot: bool = False
    ) -> None:
        self.name = name
        self.hot = hot
        self._reentrant = reentrant
        self._inner: threading.Lock | threading.RLock = (
            threading.RLock() if reentrant else threading.Lock()
        )

    def _held_by_me(self) -> bool:
        return any(entry is self for entry in _HELD.stack)

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        reacquire = self._held_by_me()
        if reacquire and not self._reentrant:
            # A plain Lock re-acquired by its holder is a guaranteed
            # self-deadlock; raising beats hanging the test suite.
            raise _report(
                LockOrderViolation(
                    f"thread {threading.current_thread().name!r} re-acquired "
                    f"non-reentrant lock {self.name!r} it already holds"
                )
            )
        if not reacquire and blocking:
            # Check/record before we block: this is what turns a latent
            # inversion into a deterministic failure.
            self._record_edges()
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            if not reacquire and not blocking:
                self._record_edges()
            _HELD.stack.append(self)
        return acquired

    def _record_edges(self) -> None:
        held = tuple(dict.fromkeys(entry.name for entry in _HELD.stack))
        _GRAPH.record(held, self.name)

    def release(self) -> None:
        stack = _HELD.stack
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is self:
                del stack[i]
                break
        self._inner.release()

    def locked(self) -> bool:
        if not self._reentrant:
            return self._inner.locked()  # type: ignore[union-attr]
        # RLock exposes no portable "locked" probe; approximate with
        # whether *this* thread holds it, which is what callers here use
        # it for (assertions in tests).
        return self._held_by_me()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()

    def __repr__(self) -> str:
        kind = "RLock" if self._reentrant else "Lock"
        hot = " hot" if self.hot else ""
        return f"<SanitizedLock {self.name!r} ({kind}{hot})>"


def _named_in_guarded(name: str) -> bool:
    """True when the object constructing the lock lists it in ``_GUARDED``.

    Called from the factories, so frame 2 is the constructor that runs
    ``self._lock = make_lock("Owner._lock")``.
    """
    owner = sys._getframe(2).f_locals.get("self")
    guarded = getattr(type(owner), "_GUARDED", {})
    return name.rpartition(".")[2] in guarded


def make_lock(name: str) -> Lockable:
    """A mutual-exclusion lock, instrumented when the sanitizer is enabled.

    ``name`` should be stable and unique per lock *role* (conventionally
    ``"ClassName._attr"``); the order graph and every violation message use
    it.
    """
    if sanitizer_enabled():
        _install_blocking_checks()
        return SanitizedLock(name, hot=_named_in_guarded(name))
    return threading.Lock()


def make_rlock(name: str) -> Lockable:
    """A reentrant lock, instrumented when the sanitizer is enabled."""
    if sanitizer_enabled():
        _install_blocking_checks()
        return SanitizedLock(name, reentrant=True, hot=_named_in_guarded(name))
    return threading.RLock()
