"""Per-checker fixtures: one known-bad and one known-good snippet each."""

import pytest


class TestAsyncBlocking:
    def test_time_sleep_in_coroutine_fires(self, run_checker):
        findings = run_checker(
            "async-blocking",
            """
            import time

            async def handler(request):
                time.sleep(0.1)
            """,
        )
        assert len(findings) == 1
        assert "asyncio.sleep" in findings[0].message

    def test_awaited_asyncio_sleep_is_clean(self, run_checker):
        findings = run_checker(
            "async-blocking",
            """
            import asyncio

            async def handler(request):
                await asyncio.sleep(0.1)
            """,
        )
        assert findings == []

    def test_bare_acquire_fires_but_awaited_does_not(self, run_checker):
        findings = run_checker(
            "async-blocking",
            """
            async def bad(self):
                self._lock.acquire()

            async def good(self):
                await self._semaphore.acquire()
            """,
        )
        assert len(findings) == 1
        assert "bad" in findings[0].message

    def test_sync_helper_inside_coroutine_is_skipped(self, run_checker):
        # The usual run_in_executor payload: blocking calls are its point.
        findings = run_checker(
            "async-blocking",
            """
            import time

            async def handler(loop):
                def blocking_probe():
                    time.sleep(0.1)
                    return open("/dev/null")

                return await loop.run_in_executor(None, blocking_probe)
            """,
        )
        assert findings == []

    def test_sync_function_is_out_of_scope(self, run_checker):
        findings = run_checker(
            "async-blocking",
            """
            import time

            def worker():
                time.sleep(0.1)
            """,
        )
        assert findings == []


class TestCancellation:
    def test_fetching_schedule_loop_without_poll_fires(self, run_checker):
        findings = run_checker(
            "cancellation",
            """
            def run(self, schedule, ctx):
                for index in schedule:
                    table = self.recycler.get_or_load(index)
                    self.emit(table)
            """,
        )
        assert len(findings) == 1
        assert "cancel" in findings[0].message

    def test_polled_loop_is_clean(self, run_checker):
        findings = run_checker(
            "cancellation",
            """
            def run(self, schedule, ctx):
                for index in schedule:
                    ctx.check_cancelled()
                    table = self.recycler.get_or_load(index)
            """,
        )
        assert findings == []

    RUN_SCHEDULE = """
        def run_schedule(schedule, fetch, ingest, poll, pool=None):
            if pool is None:
                for index in schedule:
                    {serial_poll}
                    ingest(index, fetch(index))
                return
            futures = {{pool.submit(fetch, i): i for i in schedule}}
            for future in as_completed(futures):
                {pooled_poll}
                ingest(futures[future], future.result())
        """

    def test_run_schedule_with_poll_in_both_loops_is_clean(self, run_checker):
        source = self.RUN_SCHEDULE.format(
            serial_poll="poll()", pooled_poll="poll()"
        )
        assert run_checker("cancellation", source) == []

    @pytest.mark.parametrize(
        "serial_poll, pooled_poll, guard",
        [("pass", "poll()", "schedule"), ("poll()", "pass", "as_completed")],
    )
    def test_run_schedule_without_poll_fires(
        self, run_checker, serial_poll, pooled_poll, guard
    ):
        source = self.RUN_SCHEDULE.format(
            serial_poll=serial_poll, pooled_poll=pooled_poll
        )
        findings = run_checker("cancellation", source)
        assert len(findings) == 1
        assert guard in findings[0].message

    def test_claim_only_sweep_is_not_flagged(self, run_checker):
        # Bookkeeping over the schedule fetches nothing: nothing to cancel.
        findings = run_checker(
            "cancellation",
            """
            def claim(self, schedule):
                claimed = []
                for index in schedule:
                    claimed.append(index)
                return claimed
            """,
        )
        assert findings == []


class TestDurability:
    def test_write_then_rename_without_fsync_fires_twice(self, run_checker):
        findings = run_checker(
            "durability",
            """
            import json
            import os

            def checkpoint(path, payload):
                staging = path + ".tmp"
                with open(staging, "w") as handle:
                    json.dump(payload, handle)
                os.replace(staging, path)
            """,
        )
        assert len(findings) == 2
        messages = " ".join(f.message for f in findings)
        assert "fsync" in messages
        assert "directory" in messages

    def test_fsynced_commit_is_clean(self, run_checker):
        findings = run_checker(
            "durability",
            """
            import json
            import os

            def checkpoint(path, payload):
                staging = path + ".tmp"
                with open(staging, "w") as handle:
                    json.dump(payload, handle)
                    _fsync_file(handle)
                os.replace(staging, path)
                _fsync_dir(os.path.dirname(path))
            """,
        )
        assert findings == []

    def test_rename_only_shuffle_is_exempt(self, run_checker):
        # Sweeps/quarantines move already-committed directories around.
        findings = run_checker(
            "durability",
            """
            import os

            def quarantine(entry, target):
                os.rename(entry, target)
            """,
        )
        assert findings == []


class TestLockDiscipline:
    def test_guarded_write_outside_lock_fires(self, run_checker):
        findings = run_checker(
            "lock-discipline",
            """
            import threading

            class Budget:
                _GUARDED = {"_lock": ("_bytes_cached",)}

                def __init__(self):
                    self._lock = threading.Lock()
                    self._bytes_cached = 0

                def add(self, n):
                    self._bytes_cached += n
            """,
        )
        assert len(findings) == 1
        assert "_bytes_cached" in findings[0].message
        assert "with self._lock" in findings[0].message

    def test_guarded_write_under_lock_is_clean(self, run_checker):
        findings = run_checker(
            "lock-discipline",
            """
            import threading

            class Budget:
                _GUARDED = {"_lock": ("_bytes_cached",)}

                def __init__(self):
                    self._lock = threading.Lock()
                    self._bytes_cached = 0

                def add(self, n):
                    with self._lock:
                        self._bytes_cached += n
            """,
        )
        assert findings == []

    def test_constructor_writes_are_exempt(self, run_checker):
        # No concurrent reader can exist while __init__ runs.
        findings = run_checker(
            "lock-discipline",
            """
            class Budget:
                _GUARDED = {"_lock": ("_bytes_cached",)}

                def __init__(self):
                    self._bytes_cached = 0
            """,
        )
        assert findings == []

    def test_locked_prefix_convention(self, run_checker):
        findings = run_checker(
            "lock-discipline",
            """
            class Pool:
                def bad(self):
                    self._locked_total = 1

                def good(self):
                    with self._lock:
                        self._locked_total = 1
            """,
        )
        assert len(findings) == 1
        assert "_locked_total" in findings[0].message


class TestSwallow:
    def test_bare_except_fires(self, run_checker):
        findings = run_checker(
            "swallow",
            """
            def probe():
                try:
                    risky()
                except:
                    return None
            """,
        )
        assert len(findings) == 1
        assert "bare" in findings[0].message

    def test_silent_broad_except_fires(self, run_checker):
        findings = run_checker(
            "swallow",
            """
            def probe():
                try:
                    risky()
                except Exception:
                    pass
            """,
        )
        assert len(findings) == 1

    def test_handled_broad_except_is_clean(self, run_checker):
        findings = run_checker(
            "swallow",
            """
            def probe(stats):
                try:
                    risky()
                except Exception:
                    stats.failed += 1
            """,
        )
        assert findings == []

    def test_narrow_silent_except_is_clean(self, run_checker):
        findings = run_checker(
            "swallow",
            """
            def probe():
                try:
                    risky()
                except ValueError:
                    pass
            """,
        )
        assert findings == []


class TestCancellationLoopForms:
    def test_async_for_over_schedule_without_poll_fires(self, run_checker):
        findings = run_checker(
            "cancellation",
            """
            async def run(self, schedule, ctx):
                async for index in schedule.stream():
                    table = await self.load_chunk(index)
                    self.emit(table)
            """,
        )
        assert len(findings) == 1
        assert "cancel" in findings[0].message

    def test_async_for_with_poll_is_clean(self, run_checker):
        findings = run_checker(
            "cancellation",
            """
            async def run(self, schedule, ctx):
                async for index in schedule.stream():
                    ctx.raise_if_cancelled()
                    table = await self.load_chunk(index)
            """,
        )
        assert findings == []

    def test_while_draining_schedule_without_poll_fires(self, run_checker):
        findings = run_checker(
            "cancellation",
            """
            def drain(self, schedule, ctx):
                while schedule:
                    index = schedule.pop()
                    table = self.recycler.get_or_load(index)
            """,
        )
        assert len(findings) == 1
        assert "while loop" in findings[0].message

    def test_while_with_poll_is_clean(self, run_checker):
        findings = run_checker(
            "cancellation",
            """
            def drain(self, schedule, ctx):
                while schedule:
                    ctx.check_cancelled()
                    index = schedule.pop()
                    table = self.recycler.get_or_load(index)
            """,
        )
        assert findings == []

    def test_while_on_unrelated_condition_is_clean(self, run_checker):
        # The while gate never mentions a schedule: out of scope even
        # though the body fetches.
        findings = run_checker(
            "cancellation",
            """
            def drain(self, pending):
                while pending:
                    index = pending.pop()
                    table = self.recycler.get_or_load(index)
            """,
        )
        assert findings == []


LOCK_CYCLE_FILES = {
    "mod_a.py": """
        import threading
        from typing import TYPE_CHECKING

        if TYPE_CHECKING:
            from mod_b import B


        class A:
            def __init__(self):
                self._lock = threading.Lock()
                self.count = 0

            def first(self, b: "B"):
                with self._lock:
                    b.second()

            def slow(self):
                with self._lock:
                    self.count += 1
        """,
    "mod_b.py": """
        import threading
        from typing import TYPE_CHECKING

        if TYPE_CHECKING:
            from mod_a import A


        class B:
            def __init__(self):
                self._lock = threading.Lock()

            def second(self):
                with self._lock:
                    pass

            def inverted(self, a: "A"):
                with self._lock:
                    a.slow()
        """,
}


class TestLockOrder:
    def test_cross_module_cycle_reports_both_witnesses(self, run_project):
        findings = run_project("lock-order", LOCK_CYCLE_FILES)
        assert len(findings) == 1
        message = findings[0].message
        assert "lock-order cycle" in message
        assert "A._lock" in message and "B._lock" in message
        # Both inversion witnesses are named so the report is actionable.
        assert "A.first" in message and "B.inverted" in message

    def test_consistent_order_is_clean(self, run_project):
        findings = run_project(
            "lock-order",
            {
                "mod.py": """
                import threading


                class Outer:
                    def __init__(self, inner):
                        self._lock = threading.Lock()
                        self.inner = inner

                    def work(self):
                        with self._lock:
                            self.inner.bump()


                class Inner:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.count = 0

                    def bump(self):
                        with self._lock:
                            self.count += 1
                """,
            },
        )
        assert findings == []

    def test_interprocedural_self_deadlock_fires(self, run_project):
        findings = run_project(
            "lock-order",
            {
                "mod.py": """
                import threading


                class C:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.count = 0

                    def outer(self):
                        with self._lock:
                            self.helper()

                    def helper(self):
                        with self._lock:
                            self.count += 1
                """,
            },
        )
        assert len(findings) == 1
        assert "deadlock" in findings[0].message
        assert "C.helper" in findings[0].message

    def test_rlock_reacquire_is_clean(self, run_project):
        findings = run_project(
            "lock-order",
            {
                "mod.py": """
                import threading


                class C:
                    def __init__(self):
                        self._lock = threading.RLock()
                        self.count = 0

                    def outer(self):
                        with self._lock:
                            self.helper()

                    def helper(self):
                        with self._lock:
                            self.count += 1
                """,
            },
        )
        assert findings == []


class TestBlockingUnderLock:
    def test_direct_sleep_under_guarded_lock_fires(self, run_project):
        findings = run_project(
            "blocking-under-lock",
            {
                "mod.py": """
                import threading
                import time


                class C:
                    _GUARDED = {"_lock": ("count",)}

                    def __init__(self):
                        self._lock = threading.Lock()
                        self.count = 0

                    def work(self):
                        with self._lock:
                            time.sleep(1.0)
                            self.count += 1
                """,
            },
        )
        assert len(findings) == 1
        assert "time.sleep" in findings[0].message

    def test_interprocedural_blocking_reports_chain(self, run_project):
        findings = run_project(
            "blocking-under-lock",
            {
                "mod.py": """
                import threading
                import time


                class C:
                    _GUARDED = {"_lock": ("count",)}

                    def __init__(self):
                        self._lock = threading.Lock()
                        self.count = 0

                    def work(self):
                        with self._lock:
                            self.helper()

                    def helper(self):
                        time.sleep(1.0)
                """,
            },
        )
        assert len(findings) == 1
        assert "via" in findings[0].message
        assert "C.helper" in findings[0].message

    def test_unguarded_lock_is_not_flagged(self, run_project):
        # Only locks registered in _GUARDED opt in to the hot-path
        # blocking contract.
        findings = run_project(
            "blocking-under-lock",
            {
                "mod.py": """
                import threading
                import time


                class C:
                    def __init__(self):
                        self._lock = threading.Lock()

                    def work(self):
                        with self._lock:
                            time.sleep(1.0)
                """,
            },
        )
        assert findings == []

    def test_shutdown_nowait_is_exempt(self, run_project):
        findings = run_project(
            "blocking-under-lock",
            {
                "mod.py": """
                import threading


                class C:
                    _GUARDED = {"_lock": ("pool",)}

                    def __init__(self, pool):
                        self._lock = threading.Lock()
                        self.pool = pool

                    def close(self):
                        with self._lock:
                            self.pool.shutdown(wait=False)
                """,
            },
        )
        assert findings == []

    def test_work_outside_lock_is_clean(self, run_project):
        findings = run_project(
            "blocking-under-lock",
            {
                "mod.py": """
                import threading
                import time


                class C:
                    _GUARDED = {"_lock": ("count",)}

                    def __init__(self):
                        self._lock = threading.Lock()
                        self.count = 0

                    def work(self):
                        time.sleep(1.0)
                        with self._lock:
                            self.count += 1
                """,
            },
        )
        assert findings == []


class TestAsyncReach:
    def test_coroutine_reaching_sync_open_fires(self, run_project):
        findings = run_project(
            "async-reach",
            {
                "mod.py": """
                def read_manifest(path):
                    with open(path) as handle:
                        return handle.read()


                async def serve(path):
                    return read_manifest(path)
                """,
            },
        )
        assert len(findings) == 1
        assert "coroutine" in findings[0].message
        assert "read_manifest" in findings[0].message

    def test_transitive_chain_is_reported(self, run_project):
        findings = run_project(
            "async-reach",
            {
                "mod.py": """
                import time


                def inner():
                    time.sleep(0.5)


                def outer():
                    inner()


                async def serve():
                    outer()
                """,
            },
        )
        assert len(findings) == 1
        assert "via" in findings[0].message
        assert "inner" in findings[0].message

    def test_offloaded_payload_is_clean(self, run_project):
        # Handing the blocking callable to an executor is the sanctioned
        # pattern: the coroutine itself never blocks.
        findings = run_project(
            "async-reach",
            {
                "mod.py": """
                import asyncio
                import time


                def payload():
                    time.sleep(0.5)


                async def serve(loop, pool):
                    return await loop.run_in_executor(pool, payload)
                """,
            },
        )
        assert findings == []

    def test_await_chain_is_clean(self, run_project):
        findings = run_project(
            "async-reach",
            {
                "mod.py": """
                import asyncio


                async def inner():
                    await asyncio.sleep(0.5)


                async def serve():
                    await inner()
                """,
            },
        )
        assert findings == []
