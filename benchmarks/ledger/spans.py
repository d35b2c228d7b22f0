"""The benchmark's own span recorder (outside-in tracing).

Spans are taken from this directory's files, around calls into the
engine's public functions; nothing under ``src/`` knows about them.  Each
span has a name, a start, an end, the span that caused it and the id of
the operation it belongs to.  They are kept in memory and written out
once, when the run ends.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

__all__ = ["Span", "SpanRecorder", "TimingLoader", "covered", "self_time"]


@dataclass
class Span:
    """One timed interval; times are ``time.perf_counter()`` seconds."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    # Chunk loads only: rows the loader returned.
    rows: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(start: float, end: float,
            intervals: Sequence[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for low, high in sorted(intervals):
        low = max(low, cursor)
        high = min(high, end)
        if high > low:
            total += high - low
            cursor = high
    return total


def self_time(span: Span, children: Sequence[Span]) -> float:
    """``span``'s duration minus the part of it its children cover.

    Children that overlap each other (parallel chunk loads) are counted
    once, and a child reaching outside its parent is clipped to it.
    """
    return span.duration - covered(
        span.start, span.end, [(c.start, c.end) for c in children]
    )


class SpanRecorder:
    """Appends spans; safe to call from the engine's I/O threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        # The operation and span a loader call made right now belongs to
        # (one in-process client, so one operation at a time).
        self.current_op = -1
        self.current_parent: int | None = None

    def add(self, name: str, start: float, end: float,
            parent: int | None, op: int) -> Span:
        # next() on a count and list.append are each atomic under the GIL.
        span = Span(next(self._ids), name, start, end, parent, op)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, parent: int | None, op: int) -> Iterator[Span]:
        span = self.add(name, time.perf_counter(), 0.0, parent, op)
        try:
            yield span
        finally:
            span.end = time.perf_counter()

    def children_of(self) -> dict[int, list[Span]]:
        by_parent: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                by_parent.setdefault(span.parent, []).append(span)
        return by_parent

    def write(self, path: str, **header: object) -> None:
        origin = min((s.start for s in self.spans), default=0.0)
        document = {
            **header,
            "time_unit": "ms since the first span",
            "spans": [
                {
                    "id": s.id, "name": s.name, "op": s.op,
                    "parent": s.parent,
                    "start": round((s.start - origin) * 1e3, 4),
                    "end": round((s.end - origin) * 1e3, 4),
                    **({} if s.rows is None else {"rows": s.rows}),
                }
                for s in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


class TimingLoader:
    """A chunk loader that times each ``load`` and delegates the rest.

    Installed through the public ``Database.set_chunk_loader``.  Loads run
    on the engine's I/O threads and may overlap, which is why their busy
    sum and their count are reported separately from wall time.
    """

    def __init__(self, inner: object, recorder: SpanRecorder) -> None:
        self._inner = inner
        self._recorder = recorder

    def load(self, uri: str, table_name: str):
        recorder = self._recorder
        parent, op = recorder.current_parent, recorder.current_op
        started = time.perf_counter()
        table = self._inner.load(uri, table_name)
        span = recorder.add("chunk_load", started, time.perf_counter(),
                            parent, op)
        span.rows = table.num_rows
        return table

    def __getattr__(self, name: str):
        # io_delay_ms, _file_ids, load_range, ...: whatever else the
        # engine probes the loader for.
        return getattr(self._inner, name)
