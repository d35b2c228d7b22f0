"""Unit and property tests for the Steim-like codec."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.errors import FormatError
from repro.mseed import steim, steim_kernels


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
    def test_available_always_has_loop_and_numpy(self):
        names = steim_kernels.available_kernels()
        assert "loop" in names and "numpy" in names

    @pytest.mark.parametrize("kernel", ["loop", "numpy"])
    def test_kernel_parity(self, kernel):
        previous = steim_kernels.set_kernel(kernel)
        try:
            for name, x in _signals().items():
                out = steim.decode(steim.encode(x))
                assert np.array_equal(out, x), f"{kernel} mismatch on {name}"
        finally:
            steim_kernels.set_kernel(previous)

    @pytest.mark.skipif(
        not steim_kernels.NUMBA_AVAILABLE, reason="numba not installed"
    )
    def test_numba_kernel_parity(self):
        previous = steim_kernels.set_kernel("numba")
        try:
            for name, x in _signals().items():
                out = steim.decode(steim.encode(x))
                assert np.array_equal(out, x), f"numba mismatch on {name}"
        finally:
            steim_kernels.set_kernel(previous)

    def test_set_kernel_returns_previous_and_rejects_unknown(self):
        current = steim_kernels.active_kernel()
        assert steim_kernels.set_kernel(current) == current
        with pytest.raises(FormatError):
            steim_kernels.set_kernel("cuda")
        assert steim_kernels.active_kernel() == current

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
