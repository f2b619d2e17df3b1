"""Tests for the MGARD and fpzip natives and the lossless codec set."""

import numpy as np
import pytest

from repro.core import (CorruptStreamError, DType, InvalidDimensionsError,
                        InvalidTypeError)
from repro.encoders.headers import write_header
from repro.encoders.residual import encode_residuals
from repro.native import fpzip, mgard
from repro.native.lossless import codec_ids, get_codec
from repro.native.mgard.core import (_coarse, _detail_span, _encode,
                                     _level_bounds, _reconstruct, _splits,
                                     max_levels)


def _closed_loop(arr: np.ndarray, levels: int, tol: float):
    """The encoder's reconstruction of ``arr`` and the decoder's input:
    dequantized details in the split slots, the coarse grid in place."""
    buf = arr.astype(np.float64)
    bounds = _level_bounds(tol, levels, 0.0, arr.ndim)
    codes = np.empty(buf.size, dtype=np.int64)
    _encode(buf, levels, bounds, codes, np.empty(buf.size // 2),
            np.empty(buf.size // 2),
            _detail_span(float(arr.min()), float(arr.max()), bounds))
    details = np.empty_like(buf)
    offset = 0
    for lvl, _axis, _grid, odd in _splits(arr.ndim, levels):
        n = details[odd].size
        details[odd] = (codes[offset:offset + n].reshape(details[odd].shape)
                        * (2.0 * bounds[lvl]))
        offset += n
    details[_coarse(arr.ndim, levels)] = buf[_coarse(arr.ndim, levels)]
    return buf, details


class TestMgardDecomposition:
    @pytest.mark.parametrize("shape", [(17,), (16,), (9, 13), (8, 8),
                                       (5, 7, 9), (12, 10, 8)])
    def test_lossless_reconstruction(self, shape):
        # _reconstruct rebuilds the closed-loop encoder's buffer exactly
        # from the dequantized details
        rng = np.random.default_rng(0)
        arr = rng.standard_normal(shape)
        levels = max_levels(shape)
        buf, details = _closed_loop(arr, levels, 1e-9)
        assert not np.array_equal(details, buf) or levels == 0
        _reconstruct(details, levels)
        assert np.array_equal(details, buf)
        assert np.abs(buf - arr).max() <= 1e-9 * (1 + 1e-9)

    @pytest.mark.parametrize("shape", [(17,), (16,), (9, 13), (8, 8),
                                       (5, 7, 9), (12, 10, 8)])
    def test_splits_cover_every_sample_once(self, shape):
        levels = max_levels(shape)
        hits = np.zeros(shape, dtype=np.int64)
        for _level, _axis, _grid, odd in _splits(len(shape), levels):
            hits[odd] += 1
        hits[(slice(None, None, 2**levels),) * len(shape)] += 1
        assert (hits == 1).all()

    def test_max_levels_respects_min_dim(self):
        assert max_levels((3,)) == 0
        assert max_levels((6,)) == 1
        assert max_levels((100, 100)) >= 4
        assert max_levels((100, 4)) == 0  # (4+1)//2 = 2 < 3

    def test_details_small_on_smooth_data(self):
        x = np.linspace(0, 1, 65)
        arr = np.sin(2 * np.pi * x)
        _buf, details = _closed_loop(arr, 3, 1e-9)
        _level, _axis, _grid, odd = next(_splits(arr.ndim, 3))
        finest = np.abs(details[odd])
        assert finest.size == 32
        assert finest.max() < 0.01 * np.abs(arr).max()


class TestMgardCompression:
    @pytest.mark.parametrize("tol", [1e-1, 1e-3, 1e-5])
    def test_infinity_norm_bound(self, smooth3d, tol):
        out = mgard.decompress(mgard.compress(smooth3d, tol))
        assert np.abs(out - smooth3d).max() <= tol * (1 + 1e-9)

    def test_bound_on_odd_shapes(self):
        rng = np.random.default_rng(1)
        arr = rng.standard_normal((11, 23, 7)).cumsum(axis=0)
        out = mgard.decompress(mgard.compress(arr, 1e-4))
        assert np.abs(out - arr).max() <= 1e-4 * (1 + 1e-9)

    def test_min_dim_enforced(self):
        with pytest.raises(InvalidDimensionsError, match="3"):
            mgard.compress(np.zeros((2, 10)), 1e-3)
        with pytest.raises(InvalidDimensionsError):
            mgard.compress(np.zeros((10, 10, 1)), 1e-3)

    def test_exactly_min_dim_accepted(self):
        arr = np.arange(27.0).reshape(3, 3, 3)
        out = mgard.decompress(mgard.compress(arr, 1e-3))
        assert np.abs(out - arr).max() <= 1e-3 * (1 + 1e-9)

    def test_s_parameter_changes_stream(self, smooth3d):
        s0 = mgard.compress(smooth3d, 1e-3, s=0.0)
        s1 = mgard.compress(smooth3d, 1e-3, s=1.0)
        assert s0 != s1

    def test_nonpositive_tol_rejected(self, smooth3d):
        with pytest.raises(ValueError):
            mgard.compress(smooth3d, 0.0)

    def test_four_dims_rejected(self):
        with pytest.raises(InvalidDimensionsError):
            mgard.compress(np.zeros((4, 4, 4, 4)), 1e-3)

    def test_tighter_tol_larger_stream(self, smooth3d):
        loose = mgard.compress(smooth3d, 1e-2)
        tight = mgard.compress(smooth3d, 1e-6)
        assert len(tight) > len(loose)

    def test_dims_mismatch_raises(self, smooth3d):
        stream = mgard.compress(smooth3d, 1e-3)
        with pytest.raises(CorruptStreamError):
            mgard.decompress(stream, expected_dims=(4, 4))

    @pytest.mark.parametrize("magic", [b"MGD1", b"MGD2"])
    @pytest.mark.parametrize("dims", [(), (3, 3, 3, 3)])
    def test_stream_of_unsupported_rank_rejected(self, dims, magic):
        # compress never writes these ranks; a forged header must fail
        # typed, not decode or escape as an IndexError
        codes = np.zeros(int(np.prod(dims)), dtype=np.int64)
        stream = write_header(magic, DType.DOUBLE, dims,
                              doubles=(1e-3, 0.0), ints=(1,))
        with pytest.raises(CorruptStreamError, match="dimensions"):
            mgard.decompress(stream + encode_residuals(codes))

    @pytest.mark.parametrize("magic", [b"MGD1", b"MGD2"])
    @pytest.mark.parametrize("s", [1e6, -1e6])
    def test_stream_with_unusable_s_rejected(self, s, magic):
        # a forged s overflows or underflows a level's bound: typed
        # failure, not an OverflowError or a NaN array
        stream = bytearray(mgard.compress(np.random.default_rng(0)
                                          .standard_normal((9, 9)), 1e-3))
        stream[:4] = magic
        stream[9 + 16 + 8:9 + 16 + 16] = np.float64(s).tobytes()
        with pytest.raises(CorruptStreamError, match="usable bound"):
            mgard.decompress(bytes(stream))

    def test_float32_roundtrip(self, smooth3d):
        data = smooth3d.astype(np.float32)
        out = mgard.decompress(mgard.compress(data, 1e-3))
        assert out.dtype == np.float32
        assert np.abs(out.astype(np.float64)
                      - data.astype(np.float64)).max() <= 1e-3 * (1 + 1e-5)


class TestMgard010API:
    def test_mgard_compress_entry_point(self, smooth3d):
        stream = mgard.mgard_compress(1, smooth3d, 24, 24, 24, 1e-3)
        out = mgard.mgard_decompress(1, stream, 24, 24, 24)
        assert np.abs(out - smooth3d).max() <= 1e-3 * (1 + 1e-9)

    def test_2d_via_nfib_1(self):
        rng = np.random.default_rng(2)
        arr = rng.standard_normal((10, 12)).cumsum(axis=1)
        stream = mgard.mgard_compress(1, arr, 10, 12, 1, 1e-3)
        out = mgard.mgard_decompress(1, stream, 10, 12, 1)
        assert out.shape == (10, 12)

    def test_float_flag(self, smooth3d):
        stream = mgard.mgard_compress(0, smooth3d.astype(np.float32),
                                      24, 24, 24, 1e-2)
        out = mgard.mgard_decompress(0, stream, 24, 24, 24)
        assert out.dtype == np.float32


class TestFpzip:
    def test_lossless_float64(self, smooth3d):
        out = fpzip.decompress(fpzip.compress(smooth3d))
        assert np.array_equal(out, smooth3d)
        assert out.dtype == np.float64

    def test_lossless_float32(self, smooth3d):
        data = smooth3d.astype(np.float32)
        out = fpzip.decompress(fpzip.compress(data))
        assert np.array_equal(out, data)

    def test_special_values(self):
        data = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-308])
        out = fpzip.decompress(fpzip.compress(data))
        assert np.array_equal(out.view(np.uint64), data.view(np.uint64))

    def test_rejects_integers(self):
        """The paper's canonical type-awareness example: floats only."""
        with pytest.raises(InvalidTypeError, match="float"):
            fpzip.compress(np.arange(10))

    def test_compresses_smooth_data(self, smooth3d):
        stream = fpzip.compress(smooth3d)
        assert len(stream) < smooth3d.nbytes

    def test_context_api_roundtrip(self, smooth3d):
        ctx = fpzip.fpzip_write_ctx(fpzip.FPZIP_TYPE_DOUBLE, 24, 24, 24)
        stream = fpzip.fpzip_write(ctx, smooth3d)
        rctx = fpzip.fpzip_read_ctx(stream)
        assert (rctx.nx, rctx.ny, rctx.nz) == (24, 24, 24)
        out = fpzip.fpzip_read(rctx)
        assert np.array_equal(out, smooth3d)

    def test_context_requires_stream(self):
        ctx = fpzip.fpzip_write_ctx(fpzip.FPZIP_TYPE_FLOAT, 8)
        ctx.stream = None
        with pytest.raises(ValueError):
            fpzip.fpzip_read(ctx)

    def test_bad_type_constant(self):
        with pytest.raises(ValueError):
            fpzip.fpzip_write_ctx(42, 8)


class TestLosslessCodecs:
    @pytest.mark.parametrize("name", codec_ids())
    def test_roundtrip(self, name):
        rng = np.random.default_rng(8)
        payload = (b"structured " * 300
                   + bytes(rng.integers(0, 256, 500, dtype=np.uint8)))
        codec = get_codec(name)
        assert codec.decode(codec.encode(payload), len(payload)) == payload

    @pytest.mark.parametrize("name", codec_ids())
    def test_empty_roundtrip(self, name):
        codec = get_codec(name)
        assert codec.decode(codec.encode(b""), 0) == b""

    def test_unknown_codec_raises(self):
        with pytest.raises(KeyError, match="zlib"):
            get_codec("not-a-codec")

    def test_zlib_levels_ordering(self):
        payload = b"abcabcabd" * 10_000
        fast = get_codec("zlib-fast").encode(payload)
        best = get_codec("zlib-best").encode(payload)
        assert len(best) <= len(fast)


class TestMgardCorruptedHeaders:
    def test_absurd_level_count_rejected(self, smooth3d):
        """A corrupted level count must fail fast, not allocate TiBs
        (found by the fuzzer)."""
        import struct

        stream = bytearray(mgard.compress(smooth3d, 1e-3))
        # the levels int64 sits right after magic(4) version(1) dtype(1)
        # ndims(1) ndoubles(1) nints(1) + dims(3*8) + doubles(2*8)
        offset = 9 + 3 * 8 + 2 * 8
        struct.pack_into("<q", stream, offset, 2**40)
        with pytest.raises(CorruptStreamError, match="levels"):
            mgard.decompress(bytes(stream))

    def test_negative_tolerance_rejected(self, smooth3d):
        import struct

        stream = bytearray(mgard.compress(smooth3d, 1e-3))
        offset = 9 + 3 * 8  # first double = tol
        struct.pack_into("<d", stream, offset, -1.0)
        with pytest.raises(CorruptStreamError, match="tolerance"):
            mgard.decompress(bytes(stream))
