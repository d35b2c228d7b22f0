"""Cooperative query cancellation via :class:`CancelToken`.

The serving front end's request timeouts ride on this: setting the token
makes the engine unwind at the next chunk boundary with
:class:`QueryCancelled`, leaving the database consistent and reusable.
"""

from __future__ import annotations

import threading

import pytest

from repro.data.ingv import EPOCH_2010_MS
from repro.engine.errors import EngineError, QueryCancelled
from repro.engine.physical import CancelToken

MILLIS_PER_DAY = 24 * 3600 * 1000

TWO_DAY_SQL = (
    "SELECT COUNT(*) AS n FROM dataview "
    f"WHERE F.station = 'ISK' AND D.sample_time >= {EPOCH_2010_MS} "
    f"AND D.sample_time < {EPOCH_2010_MS + 2 * MILLIS_PER_DAY}"
)


def test_cancelled_is_an_engine_error():
    # Servers catching EngineError must see cancellation unwinding too.
    assert issubclass(QueryCancelled, EngineError)


def test_preset_token_cancels_before_execution(lazy_db):
    token = CancelToken()
    token.cancel()
    assert token.cancelled
    with pytest.raises(QueryCancelled):
        lazy_db.query(TWO_DAY_SQL, cancel=token)


def test_mid_flight_cancel_unwinds_and_leaves_db_usable(lazy_db):
    lazy_db.database.chunk_loader.io_delay_ms = 150.0
    token = CancelToken()
    outcome: list = []

    def run():
        try:
            lazy_db.query(TWO_DAY_SQL, cancel=token)
            outcome.append("completed")
        except QueryCancelled:
            outcome.append("cancelled")

    thread = threading.Thread(target=run)
    thread.start()
    token.cancel()
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert outcome == ["cancelled"]

    # The engine unwound cleanly: the same query still answers (and the
    # next run does not inherit the old token).
    lazy_db.database.chunk_loader.io_delay_ms = 0.0
    result = lazy_db.query(TWO_DAY_SQL)
    assert result.table.num_rows == 1


def test_untouched_token_does_not_interfere(lazy_db):
    token = CancelToken()
    result = lazy_db.query(TWO_DAY_SQL, cancel=token)
    assert result.table.num_rows == 1
    (count_row,) = result.table.rows()
    assert count_row[0] > 0


# -- faults through the one scan loop (engine/scan.run_schedule) -------------

COUNT_ALL = "SELECT COUNT(*) AS n FROM dataview"  # all 8 chunks


class _FaultOnNthLoad:
    """Delegating chunk loader that fires ``fault`` inside its Nth load."""

    def __init__(self, inner, nth, fault):
        self._inner = inner
        self._nth = nth
        self._fault = fault
        self._lock = threading.Lock()
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def load(self, uri, table_name):
        with self._lock:
            self.calls += 1
            fire = self.calls == self._nth
        if fire:
            self._fault()
        return self._inner.load(uri, table_name)


class _InjectedFault(Exception):
    pass


@pytest.mark.parametrize("shared", [False, True], ids=["private", "shared"])
@pytest.mark.parametrize("fault", ["cancel", "raise"])
def test_fault_mid_scan_unwinds_the_one_loop(
    tiny_repo, parking_token, shared, fault
):
    import time

    from repro.core.loading import prepare
    from repro.core.two_stage import TwoStageOptions

    reference, _ = prepare(
        "lazy", tiny_repo[0], options=TwoStageOptions(io_threads=1)
    )
    expected = reference.query(COUNT_ALL).table.to_dicts()
    reference.close()

    db, _ = prepare("lazy", tiny_repo[0], options=TwoStageOptions(io_threads=2))
    token = CancelToken()

    def fire():
        # Shared: hold the fault until the waiter waits on our scan.
        if shared:
            parking_token.wait_until_parked()
        if fault == "cancel":
            token.cancel()
        else:
            raise _InjectedFault("injected on the 2nd chunk")

    real_loader = db.database.chunk_loader
    real_loader.io_delay_ms = 20.0  # keep fetches in flight while we unwind
    loader = _FaultOnNthLoad(real_loader, 2, fire)
    db.database.set_chunk_loader(loader)
    try:
        if shared:
            # The waiter issues the victim's exact query and joins its
            # in-flight scan; when the victim unwinds, it takes over.
            victim_error: list = []
            waited: list = []

            def victim():
                try:
                    db.query(COUNT_ALL, cancel=token)
                except BaseException as exc:
                    victim_error.append(exc)

            victim_thread = threading.Thread(target=victim)
            waiter = threading.Thread(
                target=lambda: waited.append(
                    db.query(COUNT_ALL, cancel=parking_token)
                )
            )
            victim_thread.start()
            while loader.calls < 1:
                time.sleep(0.001)
            waiter.start()
            victim_thread.join(timeout=30)
            waiter.join(timeout=30)
            assert not victim_thread.is_alive() and not waiter.is_alive()
            (error,) = victim_error
        else:
            with pytest.raises((QueryCancelled, _InjectedFault)) as caught:
                db.query(COUNT_ALL, cancel=token)
            error = caught.value
        assert isinstance(
            error, QueryCancelled if fault == "cancel" else _InjectedFault
        )

        # Nothing of the dead scan is left on the shared pool: a sentinel
        # queued behind it runs, and no revoked fetch ever reached the loader.
        db.database.io_executor(2).submit(lambda: None).result(timeout=10)
        assert not db.database._scans
        if shared:
            # The waiter ran the scan itself, not inheriting the error.
            (result,) = waited
            assert result.table.to_dicts() == expected
            stats = result.stats
            assert stats.chunks_shared == 0
            assert (
                stats.chunks_loaded + stats.chunks_from_cache
                + stats.chunks_rehydrated
            ) == 8
        else:
            assert loader.calls < 8

        # The next query on the same database is bit-identical.
        real_loader.io_delay_ms = 0.0
        assert db.query(COUNT_ALL).table.to_dicts() == expected
    finally:
        db.close()
