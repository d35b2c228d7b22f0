"""Live mutation witnesses: each checker fires on a one-line mistake in
the shipped tree.

Fixture snippets show a checker's rule; these show it still guards the
code it was written for.  Each case copies ``src/repro``, removes one
line the invariant depends on, and runs that checker over the copy
(the unmutated tree is clean: ``test_framework.TestShippedTree``).
"""

from __future__ import annotations

import os
import shutil

import pytest

import repro
from repro.analysis import analyze

PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))

# (checker, file, anchor, replacement, expected message fragment)
CASES = [
    (
        # The catalog pointers are renamed into place unsynced.
        "durability",
        "core/sommelier.py",
        "            json.dump(pointers, handle)\n"
        "            fsync_file(handle)\n",
        "            json.dump(pointers, handle)\n",
        "fsync",
    ),
    (
        # The serial schedule stops checking the cancel token.
        "cancellation",
        "engine/scan.py",
        "        for index in schedule:\n"
        "            poll()\n",
        "        for index in schedule:\n",
        "cancel",
    ),
    (
        # A result-cache lookup is counted before its lock is taken.
        "lock-discipline",
        "core/result_cache.py",
        "        with self._lock:\n"
        "            self.stats.lookups += 1\n",
        "        self.stats.lookups += 1\n"
        "        with self._lock:\n",
        "with self._lock",
    ),
    (
        # The binder's deliberate probe loses its suppression.
        "swallow",
        "engine/sql/binder.py",
        "        # repro: ignore[swallow]\n",
        "",
        "except",
    ),
]


@pytest.mark.parametrize(
    "checker, relpath, anchor, replacement, expected",
    CASES,
    ids=[case[0] for case in CASES],
)
def test_checker_fires_on_mutated_tree(
    tmp_path, checker, relpath, anchor, replacement, expected
):
    copy = tmp_path / "repro"
    shutil.copytree(
        PACKAGE_DIR, copy, ignore=shutil.ignore_patterns("__pycache__")
    )
    target = copy / relpath
    source = target.read_text(encoding="utf-8")
    assert source.count(anchor) == 1, f"mutation anchor drifted in {relpath}"
    target.write_text(source.replace(anchor, replacement), encoding="utf-8")

    findings = analyze([str(copy)], only=[checker]).findings
    assert [finding.path for finding in findings] == [relpath]
    assert expected in findings[0].message
