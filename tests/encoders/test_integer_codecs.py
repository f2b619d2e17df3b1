"""Tests for zigzag, varint, and the byte-plane residual codec."""

import numpy as np
import pytest

from repro.encoders import (
    decode_residuals,
    encode_residuals,
    varint_decode,
    varint_decode_array,
    varint_encode,
    varint_encode_array,
    zigzag_decode,
    zigzag_encode,
)
from repro.encoders.residual import LOSSLESS_BACKENDS


class TestZigzag:
    @pytest.mark.parametrize("value,expected", [
        (0, 0), (-1, 1), (1, 2), (-2, 3), (2, 4),
    ])
    def test_known_mapping(self, value, expected):
        assert zigzag_encode(np.array([value]))[0] == expected

    def test_roundtrip_extremes(self):
        v = np.array([0, 1, -1, 2**62, -(2**62), 2**63 - 1, -(2**63)],
                     dtype=np.int64)
        assert np.array_equal(zigzag_decode(zigzag_encode(v)), v)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(0)
        v = rng.integers(-(2**62), 2**62, size=10_000)
        assert np.array_equal(zigzag_decode(zigzag_encode(v)), v)

    def test_output_unsigned(self):
        assert zigzag_encode(np.array([-5])).dtype == np.uint64

    def test_noncontiguous_input(self):
        v = np.arange(-50, 50, dtype=np.int64)[::3]
        assert np.array_equal(zigzag_decode(zigzag_encode(v)), v)

    @pytest.mark.parametrize("bits", [8, 16, 32, 64])
    def test_buffered_decode_keeps_the_code_width(self, bits):
        rng = np.random.default_rng(bits)
        codes = rng.integers(0, 2**bits, size=1000, dtype=f"u{bits // 8}",
                             endpoint=False)
        codes[:2] = [0, 2**bits - 1]
        expected = zigzag_decode(codes.astype(np.uint64))
        scratch = np.empty_like(codes)
        out = zigzag_decode(codes, out=codes, scratch=scratch)
        assert out.dtype == np.dtype(f"i{bits // 8}")
        assert np.shares_memory(out, codes)
        assert np.array_equal(out.astype(np.int64), expected)

    @pytest.mark.parametrize("bits", [8, 16, 32, 64])
    def test_buffered_encode_keeps_the_value_width(self, bits):
        rng = np.random.default_rng(bits)
        lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
        values = rng.integers(lo, hi, size=1000, dtype=f"i{bits // 8}",
                              endpoint=True)
        values[:2] = [lo, hi]
        expected = zigzag_encode(values.astype(np.int64))
        scratch = np.empty_like(values)
        out = zigzag_encode(values, out=values, scratch=scratch)
        assert out.dtype == np.dtype(f"u{bits // 8}")
        assert np.shares_memory(out, values)
        assert np.array_equal(out.astype(np.uint64), expected)

    def test_buffered_encode_widens_foreign_input(self):
        # big-endian values cannot be shifted in place: encode at int64
        v = np.array([3, -7, 2**40], dtype=">i8")
        out = np.empty(3, np.uint64)
        codes = zigzag_encode(v, out=out, scratch=np.empty_like(out))
        assert np.array_equal(codes, zigzag_encode(v.astype(np.int64)))


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**32, 2**63])
    def test_scalar_roundtrip(self, value):
        enc = varint_encode(value)
        dec, offset = varint_decode(enc)
        assert dec == value
        assert offset == len(enc)

    def test_single_byte_for_small(self):
        assert len(varint_encode(100)) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            varint_encode(-1)

    def test_truncated_raises(self):
        enc = varint_encode(1000)
        with pytest.raises(ValueError):
            varint_decode(enc[:1])

    def test_decode_with_offset(self):
        buf = varint_encode(7) + varint_encode(300)
        v1, pos = varint_decode(buf, 0)
        v2, pos = varint_decode(buf, pos)
        assert (v1, v2) == (7, 300)

    def test_array_roundtrip(self):
        rng = np.random.default_rng(1)
        v = rng.integers(0, 2**50, size=2000, dtype=np.uint64)
        enc = varint_encode_array(v)
        dec, consumed = varint_decode_array(enc, v.size)
        assert np.array_equal(dec, v)
        assert consumed == len(enc)

    def test_array_matches_scalar_encoding(self):
        values = np.array([0, 127, 128, 16384, 2**40], dtype=np.uint64)
        concat = b"".join(varint_encode(int(x)) for x in values)
        assert varint_encode_array(values) == concat

    def test_array_empty(self):
        assert varint_encode_array(np.zeros(0, dtype=np.uint64)) == b""
        dec, consumed = varint_decode_array(b"", 0)
        assert dec.size == 0 and consumed == 0

    def test_array_truncated_raises(self):
        enc = varint_encode_array(np.array([300, 300], dtype=np.uint64))
        with pytest.raises(ValueError):
            varint_decode_array(enc[:-1], 2)


class TestResidualCodec:
    def test_roundtrip_small_values(self):
        v = np.array([0, 1, -1, 100, -100], dtype=np.int64)
        assert np.array_equal(decode_residuals(encode_residuals(v)), v)

    def test_roundtrip_with_overflow_values(self):
        v = np.array([0, 127, 128, 2**40, -(2**40), 2**62], dtype=np.int64)
        assert np.array_equal(decode_residuals(encode_residuals(v)), v)

    def test_roundtrip_boundary_255(self):
        # zigzag(-128) = 255 is the last one-byte code; 128 needs a plane more
        v = np.array([127, -128, 128], dtype=np.int64)
        assert np.array_equal(decode_residuals(encode_residuals(v)), v)

    @pytest.mark.parametrize("backend", LOSSLESS_BACKENDS)
    def test_all_backends(self, backend):
        rng = np.random.default_rng(2)
        v = rng.integers(-1000, 1000, size=5000)
        stream = encode_residuals(v, backend=backend)
        assert np.array_equal(decode_residuals(stream), v)

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="backend"):
            encode_residuals(np.zeros(3, dtype=np.int64), backend="zstd")

    def test_empty_array(self):
        v = np.zeros(0, dtype=np.int64)
        assert decode_residuals(encode_residuals(v)).size == 0

    def test_bad_magic_raises(self):
        with pytest.raises(ValueError, match="magic"):
            decode_residuals(b"XXXX" + b"\x00" * 32)

    def test_truncated_payload_raises(self):
        stream = encode_residuals(np.arange(100, dtype=np.int64))
        with pytest.raises(Exception):
            decode_residuals(stream[:len(stream) // 2])

    def test_small_values_compress_well(self):
        v = np.zeros(100_000, dtype=np.int64)
        stream = encode_residuals(v)
        assert len(stream) < 2000  # ~zero entropy

    def test_preserves_shape_flattening(self):
        v = np.arange(24, dtype=np.int64).reshape(2, 3, 4)
        out = decode_residuals(encode_residuals(v))
        assert out.shape == (24,)
        assert np.array_equal(out, v.reshape(-1))
