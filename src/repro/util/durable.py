"""Crash-safe directory commits shared by the on-disk stores.

Every store that publishes files follows one discipline: write them into a
private staging directory (:func:`staging_dir`), fsync each file
(:func:`fsync_file`) and the staging directory (:func:`fsync_dir`), make
them live with one :func:`replace_dir`, then fsync the parent.  A crash at
any point leaves a committed directory reachable — the new one, or the
previous one under a ``<name>.old-*`` name that :func:`settle_replaced`
restores at the next open — and never a half-written one.
"""

from __future__ import annotations

import itertools
import os
import shutil
from typing import Callable

__all__ = [
    "OLD_SUFFIX",
    "STAGING_PREFIX",
    "fsync_dir",
    "fsync_file",
    "replace_dir",
    "settle_replaced",
    "staging_dir",
    "staging_pid_alive",
]

STAGING_PREFIX = ".tmp-"
# Suffix of a committed directory moved aside by an in-flight replace.
OLD_SUFFIX = ".old"

# Process-wide serials: staging and moved-aside names are writer-unique.
_serials = itertools.count(1)


def fsync_file(handle) -> None:
    handle.flush()
    os.fsync(handle.fileno())


def fsync_dir(path: str) -> None:
    """Persist a directory's entries (rename/create durability).

    Best-effort: some filesystems refuse O_RDONLY fsync on directories;
    losing the sync there degrades to the pre-durability behavior instead
    of failing the write path.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def staging_dir(root: str) -> str:
    """Create and return a fresh ``.tmp-<pid>-<n>`` directory under root."""
    path = os.path.join(
        root, f"{STAGING_PREFIX}{os.getpid()}-{next(_serials)}"
    )
    os.makedirs(path)
    return path


def staging_pid_alive(name: str) -> bool:
    """Does the process that staged ``.tmp-<pid>-<n>`` still run?

    Unparseable names count as dead (sweepable); a PID we may not signal
    counts as alive (conservative — the dir is at worst kept one open
    longer).
    """
    parts = name.split("-")
    try:
        pid = int(parts[1])
    except (IndexError, ValueError):
        return False
    if pid == os.getpid():
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True
    return True


def replace_dir(staging: str, final: str) -> None:
    """Move a staged directory into place, tolerating a concurrent winner.

    A replace moves the old directory aside under a *writer-unique* name
    and deletes it only after the new one is committed, so at every
    instant a committed directory is reachable — as ``final``, or as the
    ``final.old-*`` copy :func:`settle_replaced` restores if a crash hits
    between the two renames.  Unique names mean concurrent replacers of
    the same directory never delete each other's safety copy.
    """
    doomed = f"{final}{OLD_SUFFIX}-{os.getpid()}-{next(_serials)}"
    if os.path.isdir(final):
        try:
            os.rename(final, doomed)
        except OSError:
            pass
    try:
        os.rename(staging, final)
    except OSError:
        # Lost the race to a concurrent writer of the same directory:
        # their committed copy is equivalent; drop ours.
        if not os.path.isdir(final):
            raise
        shutil.rmtree(staging, ignore_errors=True)
    shutil.rmtree(doomed, ignore_errors=True)


def settle_replaced(
    root: str, name: str, intact: Callable[[str], bool] | None = None
) -> bool:
    """Finish the interrupted replace that left ``root/name`` (``X.old*``).

    When ``X`` itself is missing the crash hit between the two renames and
    the moved-aside copy is the only surviving committed state: it is
    restored (if ``intact`` accepts it).  Otherwise the replace completed
    and the leftover is deleted.  Returns True when the copy was restored.
    """
    path = os.path.join(root, name)
    final = os.path.join(root, name[: name.index(OLD_SUFFIX)])
    if not os.path.isdir(final) and (intact is None or intact(path)):
        try:
            os.rename(path, final)
            return True
        except OSError:
            pass
    shutil.rmtree(path, ignore_errors=True)
    return False
