"""Per-chunk statistics: the planner's knowledge about unloaded data.

The paper's runtime optimizer narrows stage two only by metadata time
bounds; everything it keeps is fetched and decoded.  Storage-aware BDMS
designs (AsterixDB's per-partition filters, classic zone maps) instead keep
cheap min/max summaries per storage unit so value predicates can skip whole
units without touching them.  This module is that summary layer for chunks:

* **registration-time** statistics come for free from the header facts
  ``F`` and ``S`` already hold: the time span of the chunk's segments, its
  ``file_id`` (a constant per chunk) and segment-number range, plus a
  per-segment :class:`~repro.engine.indexes.ZoneMap` over the time
  attribute for sub-chunk reasoning (gap queries);
* **decode-time enrichment**: the first full decode of a chunk measures the
  exact min/max of every numeric column (notably ``sample_value``, which no
  header knows).  Enriched ranges unlock value-predicate pruning.

Every stored range is a *true bound* over the chunk's rows — entries are
only ever added from headers (authoritative for time/ids) or from a full
decode (authoritative for everything), so pruning against them is safe.
The catalog is thread-safe and has no serialized form of its own: a
reopened database re-seeds the header statistics from the restored ``F``
and ``S`` (:func:`~repro.core.registrar.index_chunks`), and decoded-chunk
ranges travel inside :class:`~repro.engine.chunk_store.ChunkStore`
manifests, so it recovers them without re-decoding anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .indexes import ZoneMap
from .table import Table
from .types import STRING
from ..util.lock_sanitizer import make_lock

__all__ = [
    "ChunkStats",
    "ChunkStatsCatalog",
    "compute_column_ranges",
    "parse_ranges",
]


def compute_column_ranges(table: Table) -> dict[str, tuple[float, float]]:
    """Exact ``{column: (min, max)}`` over the numeric columns of a table.

    String columns are skipped, as is any column whose extrema are NaN
    (NaN bounds compare False against everything, which the planner would
    read as "cannot satisfy" and wrongly prune); an empty table yields no
    ranges.
    """
    ranges: dict[str, tuple[float, float]] = {}
    if table.num_rows == 0:
        return ranges
    for fld, column in zip(table.schema, table.columns):
        if fld.dtype is STRING:
            continue
        values = column.values
        low, high = float(np.min(values)), float(np.max(values))
        if low != low or high != high:  # NaN extrema: no usable bound
            continue
        ranges[fld.name] = (low, high)
    return ranges


def parse_ranges(payload: object) -> dict[str, tuple[float, float]] | None:
    """Validate a persisted ``{column: [min, max]}`` mapping.

    The chunk store's manifest reader uses it.  Returns None for anything
    partial, malformed, inverted or NaN-valued — a broken sidecar must
    read as *absent*, never as wrong bounds.
    """
    if not isinstance(payload, dict):
        return None
    try:
        ranges = {
            str(name): (float(pair[0]), float(pair[1]))
            for name, pair in payload.items()
        }
    except (TypeError, ValueError, IndexError, KeyError):
        return None
    for low, high in ranges.values():
        if low != low or high != high or low > high:
            return None
    return ranges


@dataclass
class ChunkStats:
    """Everything the planner knows about one chunk.

    ``ranges`` maps qualified column names to inclusive ``(min, max)``
    bounds.  ``enriched`` records whether the ranges come from a full
    decode (exact for every column) rather than headers only.
    ``segment_zones`` is a per-segment time zone map, derived from ``S``
    at registration and again at reopen, so a reopened database prunes by
    segment too.  It is None for a chunk ``S`` does not describe.
    """

    uri: str
    ranges: dict[str, tuple[float, float]] = field(default_factory=dict)
    enriched: bool = False
    segment_zones: ZoneMap | None = None


class ChunkStatsCatalog:
    """Thread-safe registry of :class:`ChunkStats`, keyed by chunk URI."""

    def __init__(self) -> None:
        self._lock = make_lock("ChunkStatsCatalog._lock")
        self._entries: dict[str, ChunkStats] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, uri: str) -> ChunkStats | None:
        with self._lock:
            return self._entries.get(uri)

    def is_enriched(self, uri: str) -> bool:
        with self._lock:
            entry = self._entries.get(uri)
            return entry is not None and entry.enriched

    def record_registration(
        self,
        uri: str,
        ranges: dict[str, tuple[float, float]],
        segment_zones: ZoneMap | None = None,
    ) -> None:
        """Install header-derived statistics; never downgrades enrichment."""
        with self._lock:
            existing = self._entries.get(uri)
            if existing is not None and existing.enriched:
                if existing.segment_zones is None:
                    existing.segment_zones = segment_zones
                return
            self._entries[uri] = ChunkStats(
                uri=uri,
                ranges=dict(ranges),
                enriched=False,
                segment_zones=segment_zones,
            )

    def observe_table(self, uri: str, table: Table) -> bool:
        """Enrich from a decoded chunk; returns True when work was done.

        Idempotent and cheap to call from hot paths: an already-enriched
        entry is left untouched without scanning the data.
        """
        if self.is_enriched(uri):
            return False
        return self.adopt_persisted(uri, compute_column_ranges(table))

    def adopt_persisted(
        self, uri: str, ranges: dict[str, tuple[float, float]]
    ) -> bool:
        """Install decode-derived ranges (from a decode or a store sidecar).

        Returns False, changing nothing, when the chunk is already
        enriched; header-derived zones are kept.
        """
        with self._lock:
            existing = self._entries.get(uri)
            if existing is not None and existing.enriched:
                return False
            zones = existing.segment_zones if existing is not None else None
            self._entries[uri] = ChunkStats(
                uri=uri,
                ranges=dict(ranges),
                enriched=True,
                segment_zones=zones,
            )
        return True

    def snapshot(self) -> dict[str, ChunkStats]:
        with self._lock:
            return dict(self._entries)
