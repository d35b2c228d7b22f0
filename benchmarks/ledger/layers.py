"""The per-layer metrics: one table naming each, its layer and its claim.

A layer is a module (or a small group of modules) of ``src/repro``.  Each
entry says which end-to-end metric on which workload the number should
move when that layer gets cheaper — written down before measuring, so a
later PR has something to be right or wrong about.  ``BENCHMARK.json``'s
``per_layer`` list is this table's name/unit/better columns; the test
suite holds the two together.

Scopes: times are medians per traced operation; counts are totals over
the first cycle of the traced leg (a fixed operation list, so they repeat
exactly for a fixed seed on the single-client workloads); ``setup_*``
counts cover the last set-up repetition.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["LAYER_METRICS", "LayerMetric"]


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    layer: str
    moves: str


_P50 = "latency_p50_ms"
_P95 = "latency_p95_ms"


LAYER_METRICS: tuple[LayerMetric, ...] = (
    # serving: serving/http, admission, server
    LayerMetric(
        "serving_overhead_ms", "ms", "lower", "serving",
        f"served_mix {_P50}, throughput_qps; no other workload",
    ),
    LayerMetric(
        "serving_admitted", "count", "higher", "serving",
        "served_mix throughput_qps",
    ),
    LayerMetric(
        "serving_queued", "count", "lower", "serving",
        f"served_mix {_P95}",
    ),
    LayerMetric(
        "serving_shed", "count", "lower", "serving",
        "served_mix failed operations",
    ),
    LayerMetric(
        "wire_bytes_per_row", "B/row", "lower", "serving",
        f"served_mix {_P50} on the row class",
    ),
    # sql: engine/sql
    LayerMetric(
        "sql_bind_ms", "ms", "lower", "sql",
        f"warm_point {_P50}",
    ),
    # optimizer: engine/optimizer, core/two_stage.compile
    LayerMetric(
        "compile_ms", "ms", "lower", "optimizer",
        f"warm_point {_P50}",
    ),
    # stage_one
    LayerMetric(
        "stage_one_ms", "ms", "lower", "stage_one",
        f"warm_point {_P50}; flat across the other three",
    ),
    LayerMetric(
        "rows_scanned_per_row_out", "ratio", "lower", "stage_one",
        f"warm_point {_P50}",
    ),
    # planner: core/runtime_rewrite, engine/chunk_planner
    LayerMetric(
        "chunks_required", "count", "lower", "planner",
        f"spill_scan, cold_scan {_P50} through fewer chunks fetched",
    ),
    LayerMetric(
        "chunks_pruned", "count", "higher", "planner",
        f"spill_scan, cold_scan {_P50}",
    ),
    LayerMetric(
        "prune_ratio", "ratio", "higher", "planner",
        f"spill_scan, cold_scan {_P50}",
    ),
    LayerMetric(
        "chunks_from_memory", "count", "higher", "planner",
        f"warm_point, served_mix {_P50}",
    ),
    LayerMetric(
        "chunks_from_store", "count", "lower", "planner",
        f"spill_scan {_P50}",
    ),
    LayerMetric(
        "chunks_loaded", "count", "lower", "planner",
        f"cold_scan {_P50}, throughput_qps",
    ),
    # recycler
    LayerMetric(
        "recycler_hits", "count", "higher", "recycler",
        f"spill_scan {_P50}",
    ),
    LayerMetric(
        "recycler_misses", "count", "lower", "recycler",
        f"cold_scan {_P50}",
    ),
    LayerMetric(
        "recycler_coalesced", "count", "higher", "recycler",
        f"served_mix {_P95}",
    ),
    LayerMetric(
        "recycler_evictions", "count", "lower", "recycler",
        f"spill_scan {_P50}, {_P95}",
    ),
    LayerMetric(
        "recycler_rehydrates", "count", "lower", "recycler",
        f"spill_scan {_P50}, {_P95}",
    ),
    LayerMetric(
        "recycler_hit_ratio", "ratio", "higher", "recycler",
        "0 on cold_scan, 1 on warm_point, rehydrate-dominated on "
        "spill_scan",
    ),
    # chunk_store
    LayerMetric(
        "setup_store_spills", "count", "lower", "chunk_store",
        "spill_scan setup_s",
    ),
    LayerMetric(
        "setup_store_bytes_spilled", "B", "lower", "chunk_store",
        "spill_scan setup_s",
    ),
    LayerMetric(
        "store_rehydrates", "count", "lower", "chunk_store",
        f"spill_scan {_P50}",
    ),
    LayerMetric(
        "store_bytes_per_repo_byte", "ratio", "lower", "chunk_store",
        "spill_scan setup_s (bytes written per byte of Steim "
        "repository)",
    ),
    # mseed: mseed/reader, steim_kernels, through the chunk loader
    LayerMetric(
        "chunk_load_ms", "ms", "lower", "mseed",
        f"cold_scan {_P50}, throughput_qps; spill_scan setup_s",
    ),
    LayerMetric(
        "chunk_loads", "count", "lower", "mseed",
        "cold_scan throughput_qps; zero on warm_point",
    ),
    LayerMetric(
        "chunk_load_busy_ms", "ms", "lower", "mseed",
        f"cold_scan {_P50} (busy sum; loads overlap on the I/O "
        "threads)",
    ),
    LayerMetric(
        "setup_chunk_loads", "count", "lower", "mseed",
        "spill_scan, warm_point, served_mix setup_s",
    ),
    LayerMetric(
        "setup_chunk_load_busy_ms", "ms", "lower", "mseed",
        "spill_scan, warm_point, served_mix setup_s",
    ),
    LayerMetric(
        "samples_decoded_per_s", "1/s", "higher", "mseed",
        "cold_scan throughput_qps",
    ),
    # physical: engine/physical, hashjoin, table
    LayerMetric(
        "stage_two_ms", "ms", "lower", "physical",
        f"spill_scan {_P50}, then cold_scan",
    ),
    LayerMetric(
        "physical_self_ms", "ms", "lower", "physical",
        f"spill_scan {_P50} first, then cold_scan (stage two minus "
        "loads)",
    ),
    LayerMetric(
        "rows_joined", "count", "lower", "physical",
        f"spill_scan {_P50}",
    ),
    LayerMetric(
        "rows_out", "count", "higher", "physical",
        "fixed by the operation list; a change here is a wrong "
        "answer",
    ),
    # partial_views: core/partial_views
    LayerMetric(
        "derive_ms", "ms", "lower", "partial_views",
        f"served_mix {_P95}",
    ),
    LayerMetric(
        "windows_inserted", "count", "higher", "partial_views",
        f"served_mix {_P95}",
    ),
    # the instrument itself
    LayerMetric(
        "tracing_overhead_frac", "ratio", "lower", "ledger",
        "traced p50 over untraced p50, minus one; bounds what a "
        "trace can be trusted for",
    ),
)
