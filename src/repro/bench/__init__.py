"""Benchmark harness: experiment runners for every table and figure.

``run_table2``/``run_table3`` regenerate the dataset tables; ``run_fig6``
through ``run_fig9`` regenerate the evaluation figures;
``run_ablation_rules`` checks the minimality of the join-order rules (the
README's "CI" section lists these paper-claim runs).  All runners
take an :class:`ExperimentContext` built from a :class:`BenchProfile`
(selected via ``REPRO_BENCH_PROFILE``: quick / small / paper).
"""

from .ablations import run_ablation_rules
from .experiments import ExperimentContext, run_fig6, run_fig7, run_table2, run_table3
from .profiles import BenchProfile, PROFILES, active_profile
from .reporting import ReportTable, format_bytes, format_seconds, results_dir
from .sweeps import run_fig8, run_fig9
from .timing import ColdHotTiming, measure_cold_hot, time_call

__all__ = [
    "BenchProfile",
    "ColdHotTiming",
    "ExperimentContext",
    "PROFILES",
    "ReportTable",
    "active_profile",
    "format_bytes",
    "format_seconds",
    "measure_cold_hot",
    "results_dir",
    "run_ablation_rules",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_table2",
    "run_table3",
    "time_call",
]
