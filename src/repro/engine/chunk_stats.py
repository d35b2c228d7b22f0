"""Per-chunk statistics: decoded value ranges of unloaded data.

The paper's runtime optimizer narrows stage two only by metadata: stage
one decides from ``F`` and ``S`` which chunks a query's time, ``file_id``
and ``segment_no`` predicates need.  No header knows ``sample_value``,
though.  Storage-aware BDMS designs (AsterixDB's per-partition filters,
classic zone maps) keep cheap min/max summaries per storage unit so value
predicates can skip whole units; this module is that summary for chunks.
The first full decode of a chunk measures the exact min/max of every
numeric column, and the chunk planner prunes against those ranges.

Every entry comes from a full decode, so every stored range is a *true
bound* over the chunk's rows and pruning against it is safe.  The catalog
is thread-safe and has no serialized form of its own: decoded ranges
travel inside :class:`~repro.engine.chunk_store.ChunkStore` manifests, so
a reopened database recovers them without re-decoding anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
    """Everything the planner knows about one decoded chunk.

    ``ranges`` maps qualified column names to inclusive ``(min, max)``
    bounds, exact for every numeric column.
    """

    uri: str
    ranges: dict[str, tuple[float, float]] = field(default_factory=dict)


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
            return uri in self._entries

    def observe_table(self, uri: str, table: Table) -> bool:
        """Record a decoded chunk's ranges; returns True when work was done.

        Idempotent and cheap to call from hot paths: a chunk already
        recorded is left untouched without scanning the data.
        """
        if self.is_enriched(uri):
            return False
        return self.adopt_persisted(uri, compute_column_ranges(table))

    def adopt_persisted(
        self, uri: str, ranges: dict[str, tuple[float, float]]
    ) -> bool:
        """Install decode-derived ranges (from a decode or a store sidecar).

        Returns False, changing nothing, when the chunk is already
        recorded.
        """
        with self._lock:
            if uri in self._entries:
                return False
            self._entries[uri] = ChunkStats(uri=uri, ranges=dict(ranges))
        return True

    def snapshot(self) -> dict[str, ChunkStats]:
        with self._lock:
            return dict(self._entries)
