"""The xseed binary format: our mSEED stand-in.

An xseed *volume* (one file = one semantic chunk) mirrors the structure the
paper describes for mSEED (Section II-C):

* a fixed-size **volume header** holding the given metadata that describes
  the whole chunk — the sensor identification (network, station, location,
  channel) and technical characteristics (data quality, encoding,
  byte order);
* a sequence of **segment records**, each with a small fixed header (segment
  number, start time, sampling frequency, sample count, payload length)
  followed by a Steim-compressed waveform payload.

Reading only the headers costs a few hundred bytes of I/O per file; decoding
the payloads costs orders of magnitude more — the GMd/AD cost asymmetry the
whole approach relies on.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..engine.errors import FormatError

__all__ = [
    "MAGIC",
    "VERSION",
    "VolumeHeader",
    "SegmentHeader",
    "segment_end_ms",
    "VOLUME_HEADER_STRUCT",
    "SEGMENT_HEADER_STRUCT",
    "pack_volume_header",
    "unpack_volume_header",
    "pack_segment_header",
    "unpack_segment_header",
]

MAGIC = b"XSD1"
VERSION = 1

# magic, version, network(8s), station(8s), location(8s), channel(8s),
# quality(4s), encoding(u8), byte_order(u8), n_segments(u32)
VOLUME_HEADER_STRUCT = struct.Struct("<4sH8s8s8s8s4sBBI")

# segment_no(u32), start_time_ms(i64), frequency(f64), sample_count(u32),
# payload_bytes(u32)
SEGMENT_HEADER_STRUCT = struct.Struct("<IqdII")

ENCODING_STEIM_LIKE = 10  # mirrors SEED's encoding-format code space
BYTE_ORDER_LITTLE = 0


@dataclass(frozen=True)
class VolumeHeader:
    """Given metadata describing a whole chunk (file)."""

    network: str
    station: str
    location: str
    channel: str
    quality: str
    encoding: int
    byte_order: int
    n_segments: int


def segment_end_ms(start_time_ms, sample_count, frequency) -> np.ndarray:
    """Exclusive end timestamp of segments of evenly spaced samples.

    The one segment-end formula, elementwise over NumPy arrays (the rows
    of ``S``) or scalars: the header property, the chunk statistics seeded
    from ``S`` and Algorithm 1's data span all use it.  The span is
    rounded half to even, as Python's ``round``; an empty segment, or one
    without a positive frequency, ends where it starts.
    """
    count = np.asarray(sample_count)
    freq = np.asarray(frequency, dtype=np.float64)
    valid = (count != 0) & (freq > 0)
    span = np.rint(count * 1000.0 / np.where(valid, freq, 1.0))
    return np.asarray(start_time_ms, dtype=np.int64) + np.where(
        valid, span, 0
    ).astype(np.int64)


@dataclass(frozen=True)
class SegmentHeader:
    """Given metadata describing one contiguous time series in a chunk."""

    segment_no: int
    start_time_ms: int
    frequency: float
    sample_count: int
    payload_bytes: int

    @property
    def end_time_ms(self) -> int:
        """Exclusive end timestamp of the segment."""
        return int(
            segment_end_ms(self.start_time_ms, self.sample_count, self.frequency)
        )


def _fixed(text: str, width: int) -> bytes:
    blob = text.encode("ascii", errors="replace")[:width]
    return blob.ljust(width, b" ")


def _unfixed(blob: bytes) -> str:
    return blob.decode("ascii", errors="replace").rstrip(" \x00")


def pack_volume_header(header: VolumeHeader) -> bytes:
    """Serialize a volume header to its fixed binary layout."""
    return VOLUME_HEADER_STRUCT.pack(
        MAGIC,
        VERSION,
        _fixed(header.network, 8),
        _fixed(header.station, 8),
        _fixed(header.location, 8),
        _fixed(header.channel, 8),
        _fixed(header.quality, 4),
        header.encoding,
        header.byte_order,
        header.n_segments,
    )


def unpack_volume_header(blob: bytes) -> VolumeHeader:
    if len(blob) < VOLUME_HEADER_STRUCT.size:
        raise FormatError("truncated xseed volume header")
    (
        magic,
        version,
        network,
        station,
        location,
        channel,
        quality,
        encoding,
        byte_order,
        n_segments,
    ) = VOLUME_HEADER_STRUCT.unpack_from(blob, 0)
    if magic != MAGIC:
        raise FormatError(f"bad xseed magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"unsupported xseed version {version}")
    return VolumeHeader(
        network=_unfixed(network),
        station=_unfixed(station),
        location=_unfixed(location),
        channel=_unfixed(channel),
        quality=_unfixed(quality),
        encoding=encoding,
        byte_order=byte_order,
        n_segments=n_segments,
    )


def pack_segment_header(header: SegmentHeader) -> bytes:
    """Serialize a segment header to its fixed binary layout."""
    return SEGMENT_HEADER_STRUCT.pack(
        header.segment_no,
        header.start_time_ms,
        header.frequency,
        header.sample_count,
        header.payload_bytes,
    )


def unpack_segment_header(blob: bytes, offset: int = 0) -> SegmentHeader:
    """Parse a segment header at ``offset``; raises FormatError when short."""
    if len(blob) - offset < SEGMENT_HEADER_STRUCT.size:
        raise FormatError("truncated xseed segment header")
    segment_no, start_ms, frequency, count, payload = (
        SEGMENT_HEADER_STRUCT.unpack_from(blob, offset)
    )
    return SegmentHeader(
        segment_no=segment_no,
        start_time_ms=start_ms,
        frequency=frequency,
        sample_count=count,
        payload_bytes=payload,
    )
