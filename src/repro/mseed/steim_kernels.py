"""Decode kernels for the Steim-like codec: batched numpy and optional numba.

The codec's hot loop is frame unpacking: every 512-sample frame stores its
deltas bit-packed (LSB-first) at one width.  Three interchangeable kernels
turn a *frame table* — parallel arrays of per-frame ``(width, count,
payload offset, output offset)`` built by one cheap header scan in
:mod:`repro.mseed.steim` — into the flat array of unsigned delta codes:

* ``loop`` — the historical per-frame numpy loop (one ``unpackbits`` +
  reshape + weighted sum per frame).  Kept as the reference baseline the
  decode benchmark measures the batched kernels against.
* ``numpy`` — the batched single-pass kernel: frames are grouped by
  ``(width, count)`` and each group is gathered and unpacked in one
  vectorized operation, so a whole chunk's worth of frames costs a handful
  of numpy calls instead of one per frame.  Always available.
* ``numba`` — a JIT-compiled nopython bit-twiddling loop (``nogil``, so
  decode threads scale past the GIL).  Auto-detected: when numba is not
  installed the registry silently omits it and ``numpy`` is the default.

All kernels are bit-exact to one another; ``tests/mseed`` and
``benchmarks/bench_decode.py`` gate on that equality.  Select explicitly
with :func:`set_kernel`.
"""

from __future__ import annotations

import numpy as np

from ..engine.errors import FormatError

try:  # pragma: no cover - exercised only where numba is installed
    import numba as _numba
except ImportError:  # pragma: no cover - the container default
    _numba = None

__all__ = [
    "NUMBA_AVAILABLE",
    "active_kernel",
    "available_kernels",
    "set_kernel",
    "unpack_frames",
]

NUMBA_AVAILABLE = _numba is not None


# -- kernel implementations --------------------------------------------------


def _unpack_frames_loop(
    buf: np.ndarray,
    widths: np.ndarray,
    counts: np.ndarray,
    offsets: np.ndarray,
    starts: np.ndarray,
    out: np.ndarray,
) -> None:
    """Reference kernel: one unpackbits/reshape/sum per frame."""
    for f in range(len(widths)):
        width = int(widths[f])
        count = int(counts[f])
        start = int(starts[f])
        if width == 0:
            out[start : start + count] = 0
            continue
        offset = int(offsets[f])
        nbytes = (count * width + 7) // 8
        raw = buf[offset : offset + nbytes]
        bits = np.unpackbits(raw, bitorder="little")[: count * width]
        matrix = bits.reshape(count, width).astype(np.uint64)
        weights = np.uint64(1) << np.arange(width, dtype=np.uint64)
        out[start : start + count] = matrix.dot(weights)


def _unpack_frames_numpy(
    buf: np.ndarray,
    widths: np.ndarray,
    counts: np.ndarray,
    offsets: np.ndarray,
    starts: np.ndarray,
    out: np.ndarray,
) -> None:
    """Batched kernel: frames grouped by ``(width, count)``, unpacked per group.

    A steim stream is overwhelmingly frames of one width and one count
    (the codec's ``FRAME_SAMPLES``), so the frame table collapses to a
    handful of groups.  Each group unpacks in a few whole-group numpy
    calls: gather every frame's payload rows at once, ``unpackbits`` them
    to an LSB-first bit matrix, right-pad each sample's bits to the
    smallest 8/16/32/64-bit container, and let ``packbits`` re-assemble
    the codes natively — the expensive traffic stays uint8 instead of the
    reference loop's per-sample uint64 matrix, and the Python-level work
    drops from one iteration per frame to one per distinct frame shape.
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


if NUMBA_AVAILABLE:  # pragma: no cover - exercised only where numba exists

    @_numba.njit(cache=True, nogil=True)
    def _unpack_frames_numba_jit(buf, widths, counts, offsets, starts, out):
        for f in range(widths.shape[0]):
            width = widths[f]
            count = counts[f]
            start = starts[f]
            if width == 0:
                for j in range(count):
                    out[start + j] = 0
                continue
            offset = offsets[f]
            bit = 0
            for j in range(count):
                code = np.uint64(0)
                for k in range(width):
                    byte = buf[offset + (bit >> 3)]
                    code |= np.uint64((byte >> (bit & 7)) & 1) << np.uint64(k)
                    bit += 1
                out[start + j] = code

    def _unpack_frames_numba(buf, widths, counts, offsets, starts, out):
        _unpack_frames_numba_jit(
            buf,
            widths.astype(np.int64),
            counts.astype(np.int64),
            offsets.astype(np.int64),
            starts.astype(np.int64),
            out,
        )


# -- kernel registry ---------------------------------------------------------

_KERNELS = {
    "loop": _unpack_frames_loop,
    "numpy": _unpack_frames_numpy,
}
if NUMBA_AVAILABLE:  # pragma: no cover
    _KERNELS["numba"] = _unpack_frames_numba


_active = "numba" if NUMBA_AVAILABLE else "numpy"


def available_kernels() -> tuple[str, ...]:
    """Every kernel importable in this interpreter, reference loop included."""
    return tuple(sorted(_KERNELS))


def active_kernel() -> str:
    """The kernel :func:`unpack_frames` currently dispatches to."""
    return _active


def set_kernel(name: str) -> str:
    """Select a kernel by name; returns the previously active one."""
    global _active
    if name not in _KERNELS:
        raise FormatError(
            f"unknown steim decode kernel {name!r}; "
            f"available: {available_kernels()}"
        )
    previous = _active
    _active = name
    return previous


def unpack_frames(
    buf: np.ndarray,
    widths: np.ndarray,
    counts: np.ndarray,
    offsets: np.ndarray,
    starts: np.ndarray,
    total: int,
) -> np.ndarray:
    """Run the active kernel over a frame table; returns the delta codes.

    ``buf`` is the concatenated payload bytes; each frame ``f`` reads
    ``(counts[f] * widths[f] + 7) // 8`` bytes at ``offsets[f]`` and writes
    ``counts[f]`` codes at ``starts[f]`` of the ``total``-long output.
    """
    out = np.zeros(total, dtype=np.uint64)
    _KERNELS[_active](buf, widths, counts, offsets, starts, out)
    return out
