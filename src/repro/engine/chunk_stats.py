"""Per-chunk statistics: the planner's knowledge about unloaded data.

The paper's runtime optimizer narrows stage two only by metadata time
bounds; everything it keeps is fetched and decoded.  Storage-aware BDMS
designs (AsterixDB's per-partition filters, classic zone maps) instead keep
cheap min/max summaries per storage unit so value predicates can skip whole
units without touching them.  This module is that summary layer for chunks:

* **registration-time** statistics come for free from the chunk headers the
  Registrar already reads: the time span of the chunk's segments, its
  ``file_id`` (a constant per chunk) and segment-number range, plus a
  per-segment :class:`~repro.engine.indexes.ZoneMap` over the time
  attribute for sub-chunk reasoning (gap queries);
* **decode-time enrichment**: the first full decode of a chunk measures the
  exact min/max of every numeric column (notably ``sample_value``, which no
  header knows).  Enriched ranges unlock value-predicate pruning.

Every stored range is a *true bound* over the chunk's rows — entries are
only ever added from headers (authoritative for time/ids) or from a full
decode (authoritative for everything), so pruning against them is safe.
The catalog is thread-safe and JSON round-trippable (checkpoint/restore);
decoded-chunk ranges additionally travel inside
:class:`~repro.engine.chunk_store.ChunkStore` manifests so a reopened
database recovers them without re-decoding anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CatalogError
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

    The one parser every sidecar reader shares (chunk-store manifests and
    checkpoint entries).  Returns None for anything partial, malformed,
    inverted or NaN-valued — a broken sidecar must read as *absent*,
    never as wrong bounds.
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
    ``segment_zones`` is a per-segment time zone map, derived from the
    headers at registration; :meth:`to_json` / :meth:`from_json` carry it
    through a checkpoint, so a reopened database prunes by segment too.
    It is None for a chunk never registered in this process or a
    checkpoint, or when a persisted zone map was malformed.
    """

    uri: str
    ranges: dict[str, tuple[float, float]] = field(default_factory=dict)
    num_rows: int | None = None
    enriched: bool = False
    segment_zones: ZoneMap | None = None

    def to_json(self) -> dict:
        payload = {
            "uri": self.uri,
            "ranges": {k: [v[0], v[1]] for k, v in self.ranges.items()},
            "num_rows": self.num_rows,
            "enriched": self.enriched,
        }
        if self.segment_zones is not None:
            payload["zones"] = {
                "attribute": self.segment_zones.attribute,
                "entries": [
                    [entry.zone_id, entry.minimum, entry.maximum]
                    for entry in self.segment_zones.entries()
                ],
            }
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "ChunkStats | None":
        """Parse one persisted entry; None when partial or malformed.

        Unknown keys are ignored, so checkpoint entries that still carry
        a per-chunk decode cost (an older format) load unchanged.
        """
        try:
            ranges = parse_ranges(dict(payload["ranges"]))
            if ranges is None:
                return None
            rows = payload.get("num_rows")
            return cls(
                uri=str(payload["uri"]),
                ranges=ranges,
                num_rows=None if rows is None else int(rows),
                enriched=bool(payload.get("enriched", False)),
                segment_zones=cls._zones_from_json(payload.get("zones")),
            )
        except (KeyError, TypeError, ValueError, IndexError):
            return None

    @staticmethod
    def _zones_from_json(payload: object) -> ZoneMap | None:
        """Rebuild a persisted zone map; None on anything malformed."""
        if not isinstance(payload, dict):
            return None
        try:
            zones = ZoneMap(str(payload["attribute"]))
            for zone_id, minimum, maximum in payload["entries"]:
                zones.add_zone(int(zone_id), int(minimum), int(maximum))
        except (KeyError, TypeError, ValueError, CatalogError):
            return None
        return zones


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
        num_rows: int | None = None,
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
                num_rows=num_rows,
                enriched=False,
                segment_zones=segment_zones,
            )

    def observe_table(self, uri: str, table: Table) -> bool:
        """Enrich from a decoded chunk; returns True when work was done.

        Idempotent and cheap to call from hot paths: an already-enriched
        entry is left untouched without scanning the data.
        """
        with self._lock:
            existing = self._entries.get(uri)
            if existing is not None and existing.enriched:
                return False
        ranges = compute_column_ranges(table)
        with self._lock:
            existing = self._entries.get(uri)
            if existing is not None and existing.enriched:
                return False
            zones = existing.segment_zones if existing is not None else None
            self._entries[uri] = ChunkStats(
                uri=uri,
                ranges=ranges,
                num_rows=table.num_rows,
                enriched=True,
                segment_zones=zones,
            )
        return True

    def adopt_persisted(
        self,
        uri: str,
        ranges: dict[str, tuple[float, float]],
        num_rows: int | None = None,
    ) -> None:
        """Install decode-derived ranges recovered from a store sidecar."""
        with self._lock:
            existing = self._entries.get(uri)
            if existing is not None and existing.enriched:
                return
            zones = existing.segment_zones if existing is not None else None
            self._entries[uri] = ChunkStats(
                uri=uri,
                ranges=dict(ranges),
                num_rows=num_rows,
                enriched=True,
                segment_zones=zones,
            )

    def snapshot(self) -> dict[str, ChunkStats]:
        with self._lock:
            return dict(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    # -- persistence (the checkpointed catalog pointers) -------------------

    def to_json(self) -> list[dict]:
        with self._lock:
            return [entry.to_json() for entry in self._entries.values()]

    def load_json(self, payload: object) -> int:
        """Restore entries from a checkpoint; returns how many loaded.

        Malformed entries are skipped — a partially written checkpoint can
        only ever lose statistics, never invent wrong ones.
        """
        if not isinstance(payload, list):
            return 0
        loaded = 0
        for item in payload:
            if not isinstance(item, dict):
                continue
            entry = ChunkStats.from_json(item)
            if entry is None:
                continue
            with self._lock:
                existing = self._entries.get(entry.uri)
                if existing is not None and existing.enriched:
                    continue
                if existing is not None and existing.segment_zones is not None:
                    entry.segment_zones = existing.segment_zones
                self._entries[entry.uri] = entry
            loaded += 1
        return loaded
