"""Tests for Lorenzo predictors, quantization, and stream headers."""

import numpy as np
import pytest

from repro.core import CorruptStreamError, DType
from repro.encoders import (
    dequantize_uniform,
    lorenzo_decode,
    lorenzo_encode,
    quantize_uniform,
)
from repro.encoders.headers import read_header, write_header


class TestLorenzo:
    @pytest.mark.parametrize("shape", [(100,), (13, 17), (7, 9, 11),
                                       (3, 4, 5, 6)])
    def test_roundtrip_shapes(self, shape):
        rng = np.random.default_rng(0)
        q = rng.integers(-(2**40), 2**40, size=shape)
        assert np.array_equal(lorenzo_decode(lorenzo_encode(q)), q)

    def test_roundtrip_extreme_values_wrap(self):
        q = np.array([[2**62, -(2**62)], [-(2**62), 2**62]], dtype=np.int64)
        assert np.array_equal(lorenzo_decode(lorenzo_encode(q)), q)

    def test_smooth_field_residuals_small(self):
        x = np.linspace(0, 10, 50)
        q = np.rint(np.outer(np.sin(x), np.cos(x)) * 1000).astype(np.int64)
        residuals = lorenzo_encode(q)
        # away from the boundary rows the 2-D Lorenzo residual is tiny
        interior = np.abs(residuals[1:, 1:])
        assert interior.mean() < np.abs(q).mean() / 10

    def test_1d_is_first_difference(self):
        q = np.array([5, 7, 4, 4], dtype=np.int64)
        assert list(lorenzo_encode(q)) == [5, 2, -3, 0]

    def test_2d_corner_rule(self):
        """Residual at (i,j) is q[i,j]-q[i-1,j]-q[i,j-1]+q[i-1,j-1]."""
        q = np.array([[1, 2], [3, 7]], dtype=np.int64)
        r = lorenzo_encode(q)
        assert r[1, 1] == 7 - 3 - 2 + 1

    def test_single_element(self):
        q = np.array([42], dtype=np.int64)
        assert np.array_equal(lorenzo_decode(lorenzo_encode(q)), q)


class TestQuantization:
    @pytest.mark.parametrize("eb", [1e-6, 1e-3, 0.5, 10.0])
    def test_bound_honored(self, eb):
        rng = np.random.default_rng(1)
        x = rng.uniform(-100, 100, size=10_000)
        codes = quantize_uniform(x, eb)
        recon = dequantize_uniform(codes, eb)
        assert np.abs(x - recon).max() <= eb * (1 + 1e-9)

    def test_codes_are_int64(self):
        assert quantize_uniform(np.ones(3), 0.1).dtype == np.int64

    def test_zero_bound_raises(self):
        with pytest.raises(ValueError):
            quantize_uniform(np.ones(3), 0.0)

    def test_negative_bound_raises(self):
        with pytest.raises(ValueError):
            quantize_uniform(np.ones(3), -1.0)

    def test_nan_raises(self):
        with pytest.raises(ValueError, match="finite"):
            quantize_uniform(np.array([1.0, np.nan]), 0.1)

    def test_inf_raises(self):
        with pytest.raises(ValueError, match="finite"):
            quantize_uniform(np.array([np.inf]), 0.1)

    def test_overflow_guard(self):
        with pytest.raises(ValueError, match="too small"):
            quantize_uniform(np.array([1e30]), 1e-10)

    def test_empty_array(self):
        codes = quantize_uniform(np.zeros(0), 0.1)
        assert codes.size == 0

    def test_dequantize_dtype(self):
        codes = np.array([1, 2], dtype=np.int64)
        out = dequantize_uniform(codes, 0.5, dtype=np.dtype(np.float32))
        assert out.dtype == np.float32


class TestHeaders:
    def test_roundtrip(self):
        header = write_header(b"TST1", DType.DOUBLE, (3, 4, 5),
                              doubles=(1e-4, 2.5), ints=(7, -9))
        dtype, dims, doubles, ints, pos = read_header(header + b"payload",
                                                      b"TST1")
        assert dtype == DType.DOUBLE
        assert dims == (3, 4, 5)
        assert doubles == (1e-4, 2.5)
        assert ints == (7, -9)
        assert (header + b"payload")[pos:] == b"payload"

    def test_no_dims_no_params(self):
        header = write_header(b"TST1", DType.BYTE, ())
        dtype, dims, doubles, ints, pos = read_header(header, b"TST1")
        assert dims == ()
        assert doubles == ()
        assert pos == len(header)

    def test_wrong_magic_raises(self):
        header = write_header(b"TST1", DType.FLOAT, (2,))
        with pytest.raises(CorruptStreamError, match="magic"):
            read_header(header, b"OTHR")

    def test_truncated_raises(self):
        header = write_header(b"TST1", DType.FLOAT, (2, 2), doubles=(1.0,))
        with pytest.raises(CorruptStreamError):
            read_header(header[:10], b"TST1")

    def test_too_short_raises(self):
        with pytest.raises(CorruptStreamError):
            read_header(b"TS", b"TST1")

    def test_invalid_dtype_code_raises(self):
        header = bytearray(write_header(b"TST1", DType.FLOAT, ()))
        header[5] = 250  # dtype byte
        with pytest.raises(CorruptStreamError, match="dtype"):
            read_header(bytes(header), b"TST1")

    def test_nan_parameter_rejected(self):
        header = write_header(b"TST1", DType.FLOAT, (), doubles=(float("nan"),))
        with pytest.raises(CorruptStreamError):
            read_header(header, b"TST1")

    def test_expected_dims_are_checked(self):
        header = write_header(b"TST1", DType.FLOAT, (2, 3))
        assert read_header(header, b"TST1", expected_dims=(2, 3))[1] == (2, 3)
        assert read_header(header, b"TST1", expected_dims=[2, 3])[1] == (2, 3)
        with pytest.raises(CorruptStreamError, match="do not match"):
            read_header(header, b"TST1", expected_dims=(3, 2))

    def test_bad_magic_length_raises(self):
        with pytest.raises(ValueError):
            write_header(b"TOOLONG", DType.FLOAT, ())
