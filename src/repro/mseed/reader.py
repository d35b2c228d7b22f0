"""xseed reader — our stand-in for the libmseed library [22].

Two access paths with very different costs:

* :func:`read_metadata` parses only the volume header and segment headers,
  seeking past every compressed payload.  This is what the Registrar calls
  for every file — cheap, O(#segments) small reads.
* :func:`read_samples` additionally decodes every payload — the expensive
  path that only runs for chunks a query actually needs.
  The engine always decodes a whole chunk, so the recycler can cache it;
  segment-grain skipping happens before any read, in stage one, which
  never names a chunk none of whose segment headers (rows of ``S``) meets
  the query's time window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from ..engine.errors import FormatError
from . import steim
from .archive import open_chunk
from .format import (
    SEGMENT_HEADER_STRUCT,
    VOLUME_HEADER_STRUCT,
    SegmentHeader,
    VolumeHeader,
    unpack_segment_header,
    unpack_volume_header,
)

__all__ = [
    "FileMetadata",
    "SegmentSamples",
    "read_metadata",
    "read_samples",
    "sample_times",
]


@dataclass(frozen=True)
class FileMetadata:
    """All given metadata of one chunk (headers only, no payload decode)."""

    volume: VolumeHeader
    segments: tuple[SegmentHeader, ...]

    @property
    def total_samples(self) -> int:
        """Sum of sample counts over all segments (from headers only)."""
        return sum(s.sample_count for s in self.segments)


@dataclass(frozen=True)
class SegmentSamples:
    """Decoded samples of one segment plus its header."""

    header: SegmentHeader
    times_ms: np.ndarray
    values: np.ndarray


def sample_times(header: SegmentHeader) -> np.ndarray:
    """Reconstruct per-sample timestamps from a segment header.

    Timestamps are not stored in the file (like mSEED, they are implied by
    start time and frequency); materializing them is part of why loaded
    data is so much bigger than the raw chunk.
    """
    if header.frequency <= 0:
        raise FormatError("segment frequency must be positive")
    period_ms = 1000.0 / header.frequency
    offsets = np.round(np.arange(header.sample_count) * period_ms).astype(np.int64)
    return header.start_time_ms + offsets


def _read_headers(handle: BinaryIO) -> tuple[VolumeHeader, list[tuple[SegmentHeader, int]]]:
    blob = handle.read(VOLUME_HEADER_STRUCT.size)
    volume = unpack_volume_header(blob)
    segments: list[tuple[SegmentHeader, int]] = []
    for _ in range(volume.n_segments):
        head_blob = handle.read(SEGMENT_HEADER_STRUCT.size)
        header = unpack_segment_header(head_blob)
        payload_offset = handle.tell()
        segments.append((header, payload_offset))
        handle.seek(header.payload_bytes, 1)
    return volume, segments


def read_metadata(path: str) -> FileMetadata:
    """Header-only scan of one volume (the Registrar's access path)."""
    with open_chunk(path) as handle:
        volume, segments = _read_headers(handle)
    return FileMetadata(volume=volume, segments=tuple(h for h, _ in segments))


def read_samples(path: str) -> list[SegmentSamples]:
    """Full decode of every segment (the chunk-access full-load strategy)."""
    with open_chunk(path) as handle:
        volume, segments = _read_headers(handle)
        payloads = []
        for header, offset in segments:
            handle.seek(offset)
            payloads.append(handle.read(header.payload_bytes))
    # One batched kernel pass over the whole chunk's segments.
    decoded = steim.decode_many(payloads)
    results: list[SegmentSamples] = []
    for (header, _), values in zip(segments, decoded):
        if len(values) != header.sample_count:
            raise FormatError(
                f"{path}: segment {header.segment_no} decoded "
                f"{len(values)} samples, header says {header.sample_count}"
            )
        results.append(SegmentSamples(header, sample_times(header), values))
    return results

