"""The decode kernel of the Steim-like codec: batched numpy frame unpacking.

The codec's hot loop is frame unpacking: every 512-sample frame stores its
deltas bit-packed (LSB-first) at one width.  The kernel turns a *frame
table* — parallel arrays of per-frame ``(width, count, payload offset,
output offset)`` built by one cheap header scan in
:mod:`repro.mseed.steim` — into the flat array of unsigned delta codes.
Frames are grouped by ``(width, count)`` and each group is gathered and
unpacked in one vectorized operation, so a whole chunk's worth of frames
costs a handful of numpy calls instead of one per frame.

It is the only decode path.  ``tests/mseed`` keeps the historical
per-frame loop as a bit-exact reference oracle and property-tests this
kernel against it over arbitrary frame tables.
"""

from __future__ import annotations

import numpy as np

__all__ = ["active_kernel", "unpack_frames"]


def active_kernel() -> str:
    """Name of the decode kernel; always ``"numpy"``, the only one.

    Kept because the benchmark ledger's host metadata
    (``benchmarks/ledger/measure.py:host_metadata``) records it in every
    results row, and that driver is frozen with its recorded trajectory.
    """
    return "numpy"


def _unpack_frames_numpy(
    buf: np.ndarray,
    widths: np.ndarray,
    counts: np.ndarray,
    offsets: np.ndarray,
    starts: np.ndarray,
    out: np.ndarray,
) -> None:
    """Frames grouped by ``(width, count)``, unpacked one group at a time.

    A steim stream is overwhelmingly frames of one width and one count
    (the codec's ``FRAME_SAMPLES``), so the frame table collapses to a
    handful of groups.  Each group unpacks in a few whole-group numpy
    calls: gather every frame's payload rows at once, ``unpackbits`` them
    to an LSB-first bit matrix, right-pad each sample's bits to the
    smallest 8/16/32/64-bit container, and let ``packbits`` re-assemble
    the codes natively — the expensive traffic stays uint8 instead of a
    per-sample uint64 matrix, and the Python-level work is one iteration
    per distinct frame shape, not one per frame.
    """
    if not len(widths) or not len(out):
        return
    widths = widths.astype(np.int64, copy=False)
    counts = counts.astype(np.int64, copy=False)
    offsets = offsets.astype(np.int64, copy=False)
    starts = starts.astype(np.int64, copy=False)
    # counts fit in 16 bits (frame headers store them as uint16), so a
    # (width, count) pair packs into one key for the group scan.
    pairs = (widths << 16) | counts
    for key in np.unique(pairs):
        width = int(key) >> 16
        count = int(key) & 0xFFFF
        if width == 0:
            continue  # out is pre-zeroed
        members = pairs == key
        group_offsets = offsets[members]
        group_starts = starts[members]
        group = len(group_offsets)
        nbytes = (count * width + 7) // 8
        rows = buf[group_offsets[:, None] + np.arange(nbytes, dtype=np.int64)]
        bits = np.unpackbits(rows, axis=1, bitorder="little")[
            :, : count * width
        ].reshape(group * count, width)
        if width <= 8:
            container, dtype = 8, np.uint8
        elif width <= 16:
            container, dtype = 16, np.uint16
        elif width <= 32:
            container, dtype = 32, np.uint32
        else:
            container, dtype = 64, np.uint64
        if width < container:
            padded = np.zeros((group * count, container), dtype=np.uint8)
            padded[:, :width] = bits
            bits = padded
        # Rows are whole bytes, so packing the raveled row-major matrix is
        # byte-for-byte the per-row pack — and the flat form of packbits is
        # far faster than its axis= path.
        codes = np.packbits(bits.reshape(-1), bitorder="little").view(dtype)
        if group == 1 or (
            np.all(group_starts[1:] - group_starts[:-1] == count)
        ):
            # The dominant shape: one payload's run of full frames lands in
            # one contiguous output slice.
            begin = int(group_starts[0])
            out[begin : begin + group * count] = codes
        else:
            out[group_starts[:, None] + np.arange(count, dtype=np.int64)] = (
                codes.reshape(group, count)
            )


def unpack_frames(
    buf: np.ndarray,
    widths: np.ndarray,
    counts: np.ndarray,
    offsets: np.ndarray,
    starts: np.ndarray,
    total: int,
) -> np.ndarray:
    """Run the kernel over a frame table; returns the delta codes.

    ``buf`` is the concatenated payload bytes; each frame ``f`` reads
    ``(counts[f] * widths[f] + 7) // 8`` bytes at ``offsets[f]`` and writes
    ``counts[f]`` codes at ``starts[f]`` of the ``total``-long output.
    """
    out = np.zeros(total, dtype=np.uint64)
    _unpack_frames_numpy(buf, widths, counts, offsets, starts, out)
    return out
