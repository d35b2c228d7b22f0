"""Steim-like waveform compression: zigzag delta coding with bit-packed frames.

Real SEED volumes compress waveforms with the Steim-1/2 codecs: per-frame
difference coding with variable bit widths.  We implement the same idea in a
vectorizable form:

* the sample stream is delta-encoded (first value kept verbatim);
* deltas are zigzag-mapped to unsigned integers;
* values are grouped into frames of :data:`FRAME_SAMPLES`; each frame picks
  the smallest bit width that holds its largest value and packs all values
  at that width (LSB-first).

Like Steim, smooth seismic signals (small deltas) compress to a few bits per
sample while the decompressed form expands by an order of magnitude — the
size asymmetry behind the paper's Table III.

All encode/decode paths are NumPy-vectorized; nothing loops per sample.
Decoding is two-phase: a cheap header scan builds a *frame table* (per-frame
width, count and offsets), then the :mod:`repro.mseed.steim_kernels`
kernel unpacks every frame, each group of equal-shape frames in single
vectorized operations.  :func:`decode_many` batches the scan and unpack
across several payloads (a chunk's segments) so per-call overhead is paid
once per chunk, which is what the engine's chunk scans call.
"""

from __future__ import annotations

import struct

import numpy as np

from ..engine.errors import FormatError
from . import steim_kernels

__all__ = ["encode", "decode", "decode_many", "FRAME_SAMPLES"]

FRAME_SAMPLES = 512
_HEADER = struct.Struct("<IQ")  # sample count, first value (zigzagged)
_FRAME_HEADER = struct.Struct("<BH")  # bit width, value count


def _zigzag(values: np.ndarray) -> np.ndarray:
    """Map signed int64 to unsigned so small magnitudes get small codes."""
    signed = values.astype(np.int64, copy=False)
    return ((signed << 1) ^ (signed >> 63)).view(np.uint64)


def _unzigzag(codes: np.ndarray) -> np.ndarray:
    unsigned = codes.astype(np.uint64, copy=False)
    # (u >> 1) ^ -(u & 1), computed wholly in uint64 (two's-complement
    # wraparound is the sign extension) and reinterpreted — no int casts.
    flip = np.uint64(0) - (unsigned & np.uint64(1))
    return ((unsigned >> np.uint64(1)) ^ flip).view(np.int64)


def _pack_frame(codes: np.ndarray) -> bytes:
    """Pack one frame of unsigned codes at its minimal bit width."""
    width = int(codes.max()).bit_length() if len(codes) else 0
    if width == 0:
        return struct.pack("<BH", 0, len(codes))
    bits = (
        (codes[:, None] >> np.arange(width, dtype=np.uint64)) & np.uint64(1)
    ).astype(np.uint8)
    packed = np.packbits(bits.reshape(-1), bitorder="little")
    return struct.pack("<BH", width, len(codes)) + packed.tobytes()


def _scan_frames(
    payload: bytes,
    count: int,
    base: int,
    delta_base: int,
    frames: list[tuple[int, int, int, int]],
) -> None:
    """Phase one of decode: walk frame headers, no payload bytes touched.

    Appends ``(width, count, buffer offset, output offset)`` rows to the
    shared frame table; offsets are global (``base`` is where this payload
    starts in the concatenated buffer, ``delta_base`` where its deltas
    start in the flat code array).  Validates framing exhaustively: header
    and payload truncation, delta-count mismatch, and trailing bytes after
    the last frame.
    """
    offset = _HEADER.size
    decoded = 0
    while decoded < count - 1:
        if offset + _FRAME_HEADER.size > len(payload):
            raise FormatError("truncated steim frame header")
        width, values = _FRAME_HEADER.unpack_from(payload, offset)
        offset += _FRAME_HEADER.size
        if values == 0:
            raise FormatError("empty steim frame")
        nbytes = (values * width + 7) // 8
        if offset + nbytes > len(payload):
            raise FormatError("truncated steim frame payload")
        frames.append((width, values, base + offset, delta_base + decoded))
        offset += nbytes
        decoded += values
    if count and decoded != count - 1:
        raise FormatError(
            f"steim payload decoded {decoded} deltas, expected {count - 1}"
        )
    if offset != len(payload):
        raise FormatError(
            f"steim payload has {len(payload) - offset} trailing byte(s) "
            "after the last frame"
        )


def encode(samples: np.ndarray) -> bytes:
    """Compress an integer sample array; empty input is legal."""
    values = np.asarray(samples, dtype=np.int64)
    if values.ndim != 1:
        raise FormatError("steim encode expects a 1-D sample array")
    if len(values) == 0:
        return _HEADER.pack(0, 0)
    first = int(_zigzag(values[:1])[0])
    deltas = np.diff(values)
    codes = _zigzag(deltas)
    parts = [_HEADER.pack(len(values), first)]
    for start in range(0, len(codes), FRAME_SAMPLES):
        parts.append(_pack_frame(codes[start : start + FRAME_SAMPLES]))
    return b"".join(parts)


def decode(payload: bytes) -> np.ndarray:
    """Decompress back to the original int64 sample array."""
    return decode_many([payload])[0]


def decode_many(payloads: "list[bytes] | tuple[bytes, ...]") -> list[np.ndarray]:
    """Decompress a batch of payloads in one kernel pass.

    The batch entry point of the codec: all frame headers across all
    payloads are scanned first, the concatenated frame table goes through
    the decode kernel once (so equal-width frames of *different*
    payloads still share vectorized unpacks), and zigzag/cumsum
    reconstruction runs over the flat delta array.  Chunk readers hand a
    whole chunk's segment payloads here to amortize per-call overhead.
    """
    if not payloads:
        return []
    # Phase 1: header scan — frame table + per-payload reconstruction specs.
    frames: list[tuple[int, int, int, int]] = []
    specs: list[tuple[int, int, int]] = []  # (count, first_zz, delta offset)
    base = 0
    total_deltas = 0
    for payload in payloads:
        if len(payload) < _HEADER.size:
            raise FormatError("truncated steim header")
        count, first_zz = _HEADER.unpack_from(payload, 0)
        _scan_frames(payload, count, base, total_deltas, frames)
        specs.append((count, first_zz, total_deltas))
        total_deltas += max(count - 1, 0)
        base += len(payload)

    # Phase 2: one kernel pass over every frame of every payload.
    if frames:
        buf = (
            np.frombuffer(payloads[0], dtype=np.uint8)
            if len(payloads) == 1
            else np.frombuffer(b"".join(payloads), dtype=np.uint8)
        )
        table = np.asarray(frames, dtype=np.int64)
        codes = steim_kernels.unpack_frames(
            buf, table[:, 0], table[:, 1], table[:, 2], table[:, 3],
            total_deltas,
        )
        deltas = _unzigzag(codes)
    else:
        deltas = np.empty(0, dtype=np.int64)

    # Phase 3: per-payload zigzag first value + cumulative sum.
    results: list[np.ndarray] = []
    for count, first_zz, delta_offset in specs:
        if count == 0:
            results.append(np.empty(0, dtype=np.int64))
            continue
        first = int(_unzigzag(np.asarray([first_zz], dtype=np.uint64))[0])
        samples = np.empty(count, dtype=np.int64)
        samples[0] = first
        if count > 1:
            np.cumsum(
                deltas[delta_offset : delta_offset + count - 1],
                out=samples[1:],
            )
            samples[1:] += first
        results.append(samples)
    return results
