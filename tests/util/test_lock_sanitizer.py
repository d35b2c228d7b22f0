"""Runtime concurrency sanitizer: factories, edge graph, inversion and
blocking detection."""

import ast
import asyncio
import os
import pathlib
import sys
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout

import pytest

import repro
from repro import SommelierDB, TwoStageOptions
from repro.util import lock_sanitizer
from repro.util.lock_sanitizer import (
    ENV_FLAG,
    BlockingViolation,
    LockOrderViolation,
    SanitizedLock,
    make_lock,
    make_rlock,
    observed_edges,
    recorded_violations,
    reset_observed_edges,
    reset_violations,
    sanitizer_enabled,
)


@pytest.fixture
def clean_graph():
    reset_observed_edges()
    yield
    reset_observed_edges()
    # These tests provoke violations on purpose.
    reset_violations()


class TestFactories:
    def test_disabled_returns_plain_primitives(self, monkeypatch):
        monkeypatch.delenv(ENV_FLAG, raising=False)
        assert not sanitizer_enabled()
        lock = make_lock("X._lock")
        rlock = make_rlock("X._rlock")
        assert not isinstance(lock, SanitizedLock)
        assert not isinstance(rlock, SanitizedLock)
        with lock:
            with rlock:
                with rlock:  # reentrancy of the plain RLock
                    pass

    def test_zero_counts_as_disabled(self, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "0")
        assert not sanitizer_enabled()

    def test_enabled_returns_sanitized_wrappers(self, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "1")
        assert sanitizer_enabled()
        assert isinstance(make_lock("X._lock"), SanitizedLock)
        assert isinstance(make_rlock("X._rlock"), SanitizedLock)


class TestOrderGraph:
    def test_consistent_order_records_edges(self, clean_graph):
        a = SanitizedLock("A._lock")
        b = SanitizedLock("B._lock")
        for _ in range(3):
            with a:
                with b:
                    pass
        assert observed_edges() == [("A._lock", "B._lock")]

    def test_inversion_raises(self, clean_graph):
        a = SanitizedLock("A._lock")
        b = SanitizedLock("B._lock")
        with a:
            with b:
                pass
        with b:
            with pytest.raises(LockOrderViolation, match="inversion"):
                a.acquire()

    def test_inversion_detected_without_real_contention(self, clean_graph):
        # The edge graph is global across threads: thread 1 establishes
        # A -> B, thread 2's B -> A raises even though no deadlock
        # materializes in this schedule.
        a = SanitizedLock("A._lock")
        b = SanitizedLock("B._lock")
        failures = []

        def establish():
            with a:
                with b:
                    pass

        def invert():
            try:
                with b:
                    with a:
                        pass
            except LockOrderViolation as exc:
                failures.append(exc)

        t1 = threading.Thread(target=establish)
        t1.start()
        t1.join()
        t2 = threading.Thread(target=invert)
        t2.start()
        t2.join()
        assert len(failures) == 1

    def test_same_name_nesting_is_not_an_edge(self, clean_graph):
        # Striped locks share one name; nesting distinct objects under
        # the same name must not self-edge.
        s1 = SanitizedLock("Recycler._stripes")
        s2 = SanitizedLock("Recycler._stripes")
        with s1:
            with s2:
                pass
        assert observed_edges() == []

    def test_reset_clears_edges(self, clean_graph):
        a = SanitizedLock("A._lock")
        b = SanitizedLock("B._lock")
        with a:
            with b:
                pass
        reset_observed_edges()
        assert observed_edges() == []
        # The inverse order is now legal again.
        with b:
            with a:
                pass
        assert observed_edges() == [("B._lock", "A._lock")]


class TestReentrancy:
    def test_rlock_reacquire_is_fine(self, clean_graph):
        lock = SanitizedLock("C._lock", reentrant=True)
        with lock:
            with lock:
                assert lock.locked()
        assert not lock.locked()

    def test_plain_lock_reacquire_raises_instead_of_hanging(
        self, clean_graph
    ):
        lock = SanitizedLock("C._lock")
        with lock:
            with pytest.raises(LockOrderViolation, match="re-acquired"):
                lock.acquire()
        assert not lock.locked()

    def test_rlock_reacquire_records_no_self_edge(self, clean_graph):
        lock = SanitizedLock("C._lock", reentrant=True)
        with lock:
            with lock:
                pass
        assert observed_edges() == []


class TestLockProtocol:
    def test_nonblocking_acquire(self, clean_graph):
        lock = SanitizedLock("C._lock")
        assert lock.acquire(blocking=False) is True
        assert lock.locked()
        lock.release()
        assert not lock.locked()

    def test_nonblocking_acquire_failure_leaves_stack_clean(
        self, clean_graph
    ):
        lock = SanitizedLock("C._lock")
        holder_done = threading.Event()
        release_now = threading.Event()

        def hold():
            with lock:
                holder_done.set()
                release_now.wait(timeout=5)

        thread = threading.Thread(target=hold)
        thread.start()
        holder_done.wait(timeout=5)
        assert lock.acquire(blocking=False) is False
        release_now.set()
        thread.join()
        # Our failed attempt must not have been pushed as "held".
        other = SanitizedLock("D._lock")
        with other:
            pass
        assert observed_edges() == []

    def test_context_manager_returns_true(self, clean_graph):
        lock = SanitizedLock("C._lock")
        with lock as acquired:
            assert acquired is True

    def test_repr_names_the_lock(self):
        assert "C._lock" in repr(SanitizedLock("C._lock"))


class _Owner:
    """A class whose ``_GUARDED`` registry makes ``_lock`` a hot lock."""

    _GUARDED = {"_lock": ("count",)}

    def __init__(self):
        self._lock = make_lock("_Owner._lock")
        self._plain = make_lock("_Owner._plain")
        self.count = 0


@pytest.fixture
def owner(monkeypatch, clean_graph):
    monkeypatch.setenv(ENV_FLAG, "1")
    # Count waits called from this file as if it were engine code.
    monkeypatch.setattr(
        lock_sanitizer, "_PACKAGE_DIR", os.path.dirname(os.path.abspath(__file__))
    )
    return _Owner()


BLOCKING_CALLS = {
    "open": lambda path: open(path, "w").close(),
    "pending-future": lambda path: Future().result(timeout=0.01),
    "time.sleep": lambda path: time.sleep(0.001),
}


def _call_params():
    for name in BLOCKING_CALLS:
        marks = ()
        if name == "time.sleep":
            # The ``time.sleep`` audit event first exists in 3.13.
            marks = pytest.mark.skipif(
                sys.version_info < (3, 13), reason="no time.sleep audit event"
            )
        yield pytest.param(name, marks=marks, id=name)


class TestBlockingChecks:
    def test_hot_locks_come_from_the_guarded_registry(self, owner):
        assert owner._lock.hot
        assert not owner._plain.hot
        assert "hot" in repr(owner._lock)

    @pytest.mark.parametrize("call", _call_params())
    def test_blocking_under_hot_lock_raises(self, owner, tmp_path, call):
        with owner._lock:
            with pytest.raises(BlockingViolation, match="'_Owner._lock'"):
                BLOCKING_CALLS[call](tmp_path / "probe")

    @pytest.mark.parametrize("call", _call_params())
    def test_blocking_under_plain_lock_passes(self, owner, tmp_path, call):
        with owner._plain:
            try:
                BLOCKING_CALLS[call](tmp_path / "probe")
            except FutureTimeout:
                pass  # the pending future really waited
        assert recorded_violations() == []

    def test_completed_future_does_not_block(self, owner):
        future = Future()
        future.set_result(7)
        with owner._lock:
            assert future.result() == 7

    def test_waits_outside_the_package_are_not_counted(
        self, owner, monkeypatch
    ):
        monkeypatch.setattr(lock_sanitizer, "_PACKAGE_DIR", "/nonexistent")
        with owner._lock:
            with pytest.raises(FutureTimeout):
                Future().result(timeout=0.01)
        assert recorded_violations() == []

    def test_open_inside_running_coroutine_raises(self, owner, tmp_path):
        async def handler():
            open(tmp_path / "probe", "w").close()

        with pytest.raises(BlockingViolation, match="event loop"):
            asyncio.run(handler())

    def test_thread_start_on_the_loop_thread_passes(self, owner):
        # run_in_executor starts a worker thread from the loop thread;
        # Thread.start() waits on an Event inside threading itself.
        async def handler():
            loop = asyncio.get_running_loop()
            with ThreadPoolExecutor(max_workers=1) as pool:
                return await loop.run_in_executor(pool, lambda: 7)

        assert asyncio.run(handler()) == 7
        assert recorded_violations() == []

    def test_caught_violation_is_still_recorded(self, owner, tmp_path):
        with owner._lock:
            try:
                open(tmp_path / "probe", "w").close()
            except BlockingViolation:
                pass
        (violation,) = recorded_violations()
        assert violation.startswith("BlockingViolation: open(")

    def test_checks_are_installed_once(self, owner, tmp_path):
        lock_sanitizer._install_blocking_checks()
        _Owner()
        wait = threading.Event.wait
        assert not hasattr(wait.__wrapped__, "__wrapped__")
        with owner._lock:
            with pytest.raises(BlockingViolation):
                open(tmp_path / "probe", "w").close()
        assert len(recorded_violations()) == 1

    def test_installed_checks_do_nothing_with_the_flag_unset(
        self, owner, monkeypatch, tmp_path
    ):
        # The checks stay installed for the rest of the process; a later
        # test run without the flag must not be affected by them.
        monkeypatch.delenv(ENV_FLAG)
        hot = SanitizedLock("X._lock", hot=True)

        async def handler():
            open(tmp_path / "probe", "w").close()

        with hot:
            asyncio.run(handler())
        assert recorded_violations() == []


def _guarded_class_names():
    """Classes under ``src/repro`` that declare a ``_GUARDED`` registry."""
    names = set()
    for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(stmt, ast.Assign)
                and any(
                    isinstance(target, ast.Name) and target.id == "_GUARDED"
                    for target in stmt.targets
                )
                for stmt in node.body
            ):
                names.add(node.name)
    return names


def test_every_guarded_engine_lock_is_hot(monkeypatch, clean_graph):
    # Hot-ness is read from the constructing frame's ``self``; a lock built
    # in a helper would silently lose it, so check every owner as built.
    monkeypatch.setenv(ENV_FLAG, "1")
    db = SommelierDB.create(
        options=TwoStageOptions(prefetch=True, result_cache=True)
    )
    try:
        owners = [
            db,
            db.database,
            db.database.recycler,
            db.result_cache,
            db.plan_cache,
            db.prefetcher,
        ]
        assert {type(o).__name__ for o in owners} == _guarded_class_names()
        for obj in owners:
            for attr in type(obj)._GUARDED:
                lock = getattr(obj, attr)
                assert lock.hot, f"{type(obj).__name__}.{attr} is not hot"
    finally:
        db.close()
