"""Static-analysis framework enforcing the engine's unwritten contracts.

Correctness of the concurrent engine rests on conventions no type
checker knows about: chunk loops must poll the
:class:`~repro.engine.physical.CancelToken`, chunk-store renames must be
fsync-preceded, guarded fields are written under their lock, and no
coroutine reaches a blocking call.  (Counter plumbing and pickle identity
are enforced by construction instead: counters are
:class:`~repro.util.counters.Counters` dataclasses, ``DataType`` is an
``Enum``.)  This package makes the remaining contracts machine-checked:

* :mod:`~repro.analysis.findings` — the :class:`Finding` model
  (checker id, severity, file:line, message);
* :mod:`~repro.analysis.base` — :class:`Checker` base + registry and the
  parsed :class:`SourceModule` handed to every checker;
* :mod:`~repro.analysis.runner` — walks a source tree, runs every
  registered checker (per-module and project-wide passes), applies
  ``# repro: ignore[ID]`` suppressions and returns an
  :class:`AnalysisReport`;
* :mod:`~repro.analysis.callgraph` — the project-wide call graph the
  interprocedural checkers (``lock-order``, ``blocking-under-lock``,
  ``async-reach``) resolve call targets against;
* :mod:`~repro.analysis.concurrency` — per-function lock/blocking
  summaries and the lock-acquisition-order graph built on top of it;
* :mod:`~repro.analysis.checkers` — the repo-specific checkers themselves.

Exposed as the ``repro analyze`` CLI subcommand and run in CI next to
ruff; the custom layer checks what off-the-shelf linting cannot.  The
runtime counterpart of the static lock-order pass is
``repro.util.lock_sanitizer`` (``REPRO_LOCK_SANITIZER=1``), which CI runs
the whole tier-1 suite under.
"""

from .base import Checker, SourceModule, all_checkers, checker_ids, register
from .callgraph import CallGraph
from .concurrency import ConcurrencyModel
from .findings import SEVERITIES, Finding
from .runner import AnalysisReport, analyze, iter_source_files, load_baseline

# Importing the package registers every built-in checker.
from . import checkers  # noqa: F401  (import-for-side-effect)

__all__ = [
    "AnalysisReport",
    "CallGraph",
    "Checker",
    "ConcurrencyModel",
    "Finding",
    "SEVERITIES",
    "SourceModule",
    "all_checkers",
    "analyze",
    "checker_ids",
    "iter_source_files",
    "load_baseline",
    "register",
]
