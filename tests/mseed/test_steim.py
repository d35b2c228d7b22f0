"""Unit and property tests for the Steim-like codec."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.engine.errors import FormatError
from repro.mseed import steim, steim_kernels


def unpack_frames_loop(buf, widths, counts, offsets, starts, out):
    """Bit-exact reference oracle: one unpackbits/reshape/sum per frame.

    The codec's original per-frame decode loop.  It is slow and obviously
    right, so the batched kernel in :mod:`repro.mseed.steim_kernels` is
    checked against it frame table by frame table.
    """
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


class TestRoundtrip:
    def test_empty(self):
        assert len(steim.decode(steim.encode(np.asarray([], dtype=np.int64)))) == 0

    def test_single_value(self):
        out = steim.decode(steim.encode(np.asarray([42])))
        assert out.tolist() == [42]

    def test_single_negative(self):
        out = steim.decode(steim.encode(np.asarray([-7])))
        assert out.tolist() == [-7]

    def test_constant_signal(self):
        x = np.full(1000, 123, dtype=np.int64)
        assert np.array_equal(steim.decode(steim.encode(x)), x)

    def test_ramp(self):
        x = np.arange(-500, 500, dtype=np.int64)
        assert np.array_equal(steim.decode(steim.encode(x)), x)

    def test_random_walk(self):
        rng = np.random.default_rng(7)
        x = np.cumsum(rng.integers(-100, 100, 5000)).astype(np.int64)
        assert np.array_equal(steim.decode(steim.encode(x)), x)

    def test_exactly_one_frame(self):
        x = np.arange(steim.FRAME_SAMPLES + 1, dtype=np.int64)
        assert np.array_equal(steim.decode(steim.encode(x)), x)

    def test_frame_boundary_plus_one(self):
        x = np.arange(steim.FRAME_SAMPLES + 2, dtype=np.int64)
        assert np.array_equal(steim.decode(steim.encode(x)), x)

    def test_large_magnitudes(self):
        x = np.asarray([2**40, -(2**40), 2**40], dtype=np.int64)
        assert np.array_equal(steim.decode(steim.encode(x)), x)


class TestCompression:
    def test_smooth_signal_compresses_well(self):
        rng = np.random.default_rng(0)
        x = np.cumsum(rng.integers(-30, 30, 20000)).astype(np.int64)
        payload = steim.encode(x)
        assert len(payload) < 0.25 * x.nbytes

    def test_constant_compresses_extremely(self):
        x = np.zeros(10000, dtype=np.int64)
        payload = steim.encode(x)
        assert len(payload) < 200

    def test_noise_still_roundtrips(self):
        rng = np.random.default_rng(1)
        x = rng.integers(-(2**31), 2**31, 3000).astype(np.int64)
        assert np.array_equal(steim.decode(steim.encode(x)), x)


class TestErrors:
    def test_truncated_header(self):
        with pytest.raises(FormatError):
            steim.decode(b"\x01\x02")

    def test_truncated_payload(self):
        x = np.arange(100, dtype=np.int64)
        payload = steim.encode(x)
        with pytest.raises(FormatError):
            steim.decode(payload[:-5])

    def test_2d_input_rejected(self):
        with pytest.raises(FormatError):
            steim.encode(np.zeros((2, 2), dtype=np.int64))

    def test_trailing_garbage_rejected(self):
        # Bytes after the last frame used to be silently ignored; a
        # truncated concatenation or corrupt length field must not
        # decode as if nothing happened.
        x = np.arange(300, dtype=np.int64)
        payload = steim.encode(x)
        with pytest.raises(FormatError, match="trailing"):
            steim.decode(payload + b"\x00\x00\x00")

    def test_trailing_garbage_rejected_empty_signal(self):
        payload = steim.encode(np.asarray([], dtype=np.int64))
        with pytest.raises(FormatError, match="trailing"):
            steim.decode(payload + b"\xff")


def _signals():
    rng = np.random.default_rng(11)
    return {
        "empty": np.asarray([], dtype=np.int64),
        "single": np.asarray([-9], dtype=np.int64),
        "constant": np.full(2000, 5, dtype=np.int64),
        "walk": np.cumsum(rng.integers(-100, 100, 7000)).astype(np.int64),
        "noise": rng.integers(-(2**31), 2**31, 3000).astype(np.int64),
        "wide": np.asarray([2**50, -(2**50), 0, 1], dtype=np.int64),
        "frame_edge": np.arange(steim.FRAME_SAMPLES + 2, dtype=np.int64),
    }


class TestKernels:
    @pytest.mark.parametrize("kernel", ["loop", "numpy"])
    def test_kernel_parity(self, kernel, monkeypatch):
        """Both the kernel and its oracle round-trip every signal shape."""
        if kernel == "loop":
            monkeypatch.setattr(
                steim_kernels, "_unpack_frames_numpy", unpack_frames_loop
            )
        for name, x in _signals().items():
            out = steim.decode(steim.encode(x))
            assert np.array_equal(out, x), f"{kernel} mismatch on {name}"

    def test_active_kernel_is_numpy(self):
        assert steim_kernels.active_kernel() == "numpy"

    def test_decode_many_matches_per_call(self):
        signals = list(_signals().values())
        payloads = [steim.encode(x) for x in signals]
        batched = steim.decode_many(payloads)
        assert len(batched) == len(signals)
        for out, x in zip(batched, signals):
            assert np.array_equal(out, x)

    def test_decode_many_empty_batch(self):
        assert steim.decode_many([]) == []


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.integers(min_value=-(2**50), max_value=2**50),
        max_size=1500,
    )
)
def test_roundtrip_property(values):
    x = np.asarray(values, dtype=np.int64)
    assert np.array_equal(steim.decode(steim.encode(x)), x)


# A frame table the encoder never writes: any width 0-64, any uint16 count,
# gaps between payloads, and output slots out of order, so equal-shape
# groups reach the kernel's scatter branch as well as its contiguous one.
_SHAPES = st.tuples(
    st.integers(min_value=0, max_value=64),
    st.one_of(
        st.just(steim.FRAME_SAMPLES), st.integers(min_value=1, max_value=0xFFFF)
    ),
)


@st.composite
def frame_tables(draw):
    shapes = draw(st.lists(_SHAPES, min_size=1, max_size=3))
    frames = draw(
        st.lists(
            st.tuples(
                st.sampled_from(shapes),
                st.integers(min_value=0, max_value=9),  # payload gap bytes
                st.integers(min_value=0, max_value=9),  # output gap codes
            ),
            min_size=1,
            max_size=5,
        )
    )
    reverse = draw(st.booleans())
    return [(w, c, pad, skip) for (w, c), pad, skip in frames], reverse


@settings(max_examples=150, deadline=None)
@given(frame_tables(), st.integers(min_value=0, max_value=2**32 - 1))
@example(
    (
        [
            (13, steim.FRAME_SAMPLES, 0, 0),
            (13, steim.FRAME_SAMPLES, 0, 0),
            (64, steim.FRAME_SAMPLES, 3, 0),
            (0, steim.FRAME_SAMPLES, 0, 0),
            (1, 0xFFFF, 1, 0),
        ],
        False,
    ),
    0,
)
def test_kernel_matches_loop_oracle_on_frame_tables(table, seed):
    frames, reverse = table
    widths = np.asarray([w for w, _, _, _ in frames], dtype=np.int64)
    counts = np.asarray([c for _, c, _, _ in frames], dtype=np.int64)
    offsets = np.empty(len(frames), dtype=np.int64)
    starts = np.empty(len(frames), dtype=np.int64)
    payload_end = 0
    output_end = 0
    slots = range(len(frames) - 1, -1, -1) if reverse else range(len(frames))
    for f in slots:
        width, count, pad, skip = frames[f]
        offsets[f] = payload_end + pad
        payload_end = int(offsets[f]) + (count * width + 7) // 8
        starts[f] = output_end + skip
        output_end = int(starts[f]) + count
    buf = np.random.default_rng(seed).integers(
        0, 256, payload_end, dtype=np.uint8
    )

    expected = np.zeros(output_end, dtype=np.uint64)
    unpack_frames_loop(buf, widths, counts, offsets, starts, expected)
    got = steim_kernels.unpack_frames(
        buf, widths, counts, offsets, starts, output_end
    )
    assert got.dtype == np.uint64
    assert np.array_equal(got, expected)
