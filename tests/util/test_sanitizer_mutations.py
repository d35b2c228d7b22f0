"""Live mutation witnesses for the runtime concurrency sanitizer.

Each case copies ``src/repro`` into a temp directory, applies one small
textual mistake, and runs a short script against the copy with
``REPRO_LOCK_SANITIZER=1``.  The sanitizer must turn each mistake into a
non-zero exit naming the violation.  The same script against the
unmutated tree is the control: it must exit 0, so a failure is the
mutation's doing and not the script's.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.data.ingv import EPOCH_2010_MS
from repro.util.lock_sanitizer import ENV_FLAG

PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))

SQL = (
    "SELECT COUNT(*) AS n FROM dataview WHERE F.station = 'ISK' "
    f"AND D.sample_time < {EPOCH_2010_MS + 3600 * 1000}"
)

PRELUDE = f"""
import sys
from repro.core.loading import prepare
from repro.data import SCALE_TEST, build_or_reuse
from repro.util.lock_sanitizer import recorded_violations

repository, _ = build_or_reuse(sys.argv[1], 1, SCALE_TEST)
db, _ = prepare("lazy", repository)
SQL = {SQL!r}
"""

# Violations the code under test caught and turned into an error result
# (or a dropped connection) still fail the run, naming the violation.
EPILOGUE = """
finally:
    db.close()
    if recorded_violations():
        sys.exit("\\n".join(recorded_violations()))
"""

# (id, file, anchor, replacement, script, expected message)
CASES = [
    (
        # M1: invalidate nests a stripe inside the global lock, inverting
        # the stripe -> Recycler._lock order get_or_load uses.
        "stripe-under-recycler-lock",
        "engine/recycler.py",
        "        with self._lock:\n"
        "            entry = self._entries.pop(uri, None)\n",
        "        with self._lock:\n"
        "            stripe_lock, inflight = self._stripe_of(uri)\n"
        "            with stripe_lock:\n"
        "                inflight.pop(uri, None)\n"
        "            entry = self._entries.pop(uri, None)\n",
        "db.query(SQL)\ndb.database.recycler.invalidate('any-uri')\n",
        "LockOrderViolation: lock order inversion: 'Recycler._lock' -> "
        "'Recycler._stripes'",
    ),
    (
        # M2: the chunk decode runs under the global recycler lock.  The
        # loader is a callable parameter, so only a runtime check sees it.
        "decode-under-recycler-lock",
        "engine/recycler.py",
        "                    self.stats.misses += 1\n"
        "                table = loader(uri)\n",
        "                    self.stats.misses += 1\n"
        "                    table = loader(uri)\n",
        "db.query(SQL)\n",
        "while holding hot lock 'Recycler._lock'",
    ),
    (
        # M3: the server runs the query on the event loop thread instead
        # of handing it to its executor.
        "query-on-event-loop",
        "serving/server.py",
        "        future = loop.run_in_executor(\n"
        "            self._executor, self._run_query, sql, client_id, cancel\n"
        "        )\n",
        "        future = loop.create_future()\n"
        "        future.set_result(self._run_query(sql, client_id, cancel))\n",
        "from repro.serving import ServingClient, start_in_thread\n"
        "with start_in_thread(db) as handle:\n"
        "    with ServingClient(*handle.address) as client:\n"
        "        client.query(SQL)\n",
        "on the event loop thread 'repro-serving'",
    ),
    (
        # A stale plan-cache entry invalidated under the lock that
        # _invalidate takes itself.
        "reacquire-held-lock",
        "core/plan_cache.py",
        "                self.stats.misses += 1\n"
        "        if fresh:\n"
        "            return entry\n"
        "        if entry is not None:\n"
        "            self._invalidate(sql, entry)\n",
        "                self.stats.misses += 1\n"
        "                if entry is not None:\n"
        "                    self._invalidate(sql, entry)\n"
        "        if fresh:\n"
        "            return entry\n",
        "db.query(SQL)\n"
        "cache = db.plan_cache\n"
        "cache.reuse(SQL, cache.bound(SQL), ())\n",
        "re-acquired non-reentrant lock 'PlanCache._lock'",
    ),
]


def _run(package_parent: str, body: str, repo_base: str):
    script = PRELUDE + "try:\n" + textwrap.indent(body, "    ") + EPILOGUE
    env = dict(os.environ, PYTHONPATH=package_parent, **{ENV_FLAG: "1"})
    return subprocess.run(
        [sys.executable, "-c", script, repo_base],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "relpath, anchor, replacement, body, expected",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_sanitizer_catches_mutation(
    tmp_path, tiny_repo, repo_base, relpath, anchor, replacement, body,
    expected,
):
    copy = tmp_path / "repro"
    shutil.copytree(
        PACKAGE_DIR, copy, ignore=shutil.ignore_patterns("__pycache__")
    )
    target = copy / relpath
    source = target.read_text(encoding="utf-8")
    assert source.count(anchor) == 1, f"mutation anchor drifted in {relpath}"
    target.write_text(source.replace(anchor, replacement), encoding="utf-8")

    mutated = _run(str(tmp_path), body, repo_base)
    assert mutated.returncode != 0
    assert expected in mutated.stderr, mutated.stderr[-2000:]

    control = _run(os.path.dirname(PACKAGE_DIR), body, repo_base)
    assert control.returncode == 0, control.stderr[-2000:]
