"""The paper's contribution: partial-loading-aware query processing.

Composes the engine substrate into the system of Sections III–V:

* :mod:`schema` — the seismology warehouse schema (F, S, D, H + views);
* :mod:`registrar` — eager given-metadata loading;
* :mod:`coloring` — query-graph coloring and join-order rules R1–R4;
* :mod:`two_stage` — plan decomposition Q = Qf ⋈ Qs and the stage driver;
* :mod:`runtime_rewrite` — rewrite rule (1): scan(a) → one planned chunk
  scan;
* :mod:`partial_views` — Algorithm 1, incremental DMd derivation;
* :mod:`query_types` — the Table-I taxonomy (T1–T5);
* :mod:`loading` — the five loading approaches of the evaluation;
* :mod:`sommelier` — the :class:`SommelierDB` facade;
* :mod:`sampling` — approximate answering over chunk samples (§VIII).
"""

from .coloring import ColoredGraph, EdgeColor, RuleSet, order_joins
from .loading import APPROACHES, LoadReport, prepare, prepare_lazy
from .partial_views import DerivationReport, PartialViewManager
from .query_types import QueryType, classify_plan
from .registrar import Registrar, RegistrarReport, XseedChunkLoader
from .runtime_rewrite import RewriteReport
from .schema import SommelierConfig, create_seismology_schema
from .sommelier import SommelierDB
from .two_stage import (
    CompiledQuery,
    QueryResult,
    TwoStageCompiler,
    TwoStageOptions,
)

__all__ = [
    "APPROACHES",
    "ColoredGraph",
    "CompiledQuery",
    "DerivationReport",
    "EdgeColor",
    "LoadReport",
    "PartialViewManager",
    "QueryResult",
    "QueryType",
    "Registrar",
    "RegistrarReport",
    "RewriteReport",
    "RuleSet",
    "SommelierConfig",
    "SommelierDB",
    "TwoStageCompiler",
    "TwoStageOptions",
    "XseedChunkLoader",
    "classify_plan",
    "create_seismology_schema",
    "order_joins",
    "prepare",
    "prepare_lazy",
]
