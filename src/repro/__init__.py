"""repro — a reproduction of "The DBMS – your Big Data Sommelier" (ICDE 2015).

A partial-loading-aware columnar DBMS for chunked scientific data: only the
metadata of a file repository is loaded eagerly; actual data chunks are
ingested lazily during query evaluation, derived metadata materializes
incrementally, and loaded chunks are cached by a Recycler.

Public entry points:

* :class:`repro.SommelierDB` — create a database, register a repository,
  run SQL (the facade over the two-stage execution model);
* :mod:`repro.core.loading` — the five loading approaches of the paper's
  evaluation (``lazy``, ``eager_plain``, ``eager_csv``, ``eager_index``,
  ``eager_dmd``);
* :mod:`repro.data` — synthetic INGV-like repository builders (Table II);
* :mod:`repro.workloads` — the T1–T5 query templates and workload
  generators of Section VI;
* :mod:`repro.engine` — the underlying columnar engine substrate;
* :mod:`repro.mseed` — the xseed chunk file format (mSEED stand-in).
"""

from .core.loading import APPROACHES, LoadReport, prepare
from .core.query_types import QueryType
from .core.sommelier import SommelierDB
from .core.two_stage import QueryResult, TwoStageOptions
from .mseed.repository import FileRepository

__version__ = "1.0.0"

__all__ = [
    "APPROACHES",
    "FileRepository",
    "LoadReport",
    "QueryResult",
    "QueryType",
    "SommelierDB",
    "TwoStageOptions",
    "prepare",
    "__version__",
]
