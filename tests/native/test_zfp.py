"""Tests for the ZFP native: blocking, transform, modes, API."""

import tracemalloc
import zlib

import numpy as np
import pytest

from repro.core import CorruptStreamError, InvalidDimensionsError
from repro.encoders.headers import read_header, write_header
from repro.encoders.quantize import int32_fits
from repro.native import zfp
from repro.native.zfp.core import (
    _block_maxbits,
    _coefficient_shape,
    _dequantize_into,
    _exchange,
    _fwd_lift,
    _gather,
    _grid,
    _inv_lift,
)


def _nblocks(shape):
    return int(np.prod(_grid(shape)))


def _lifting_layout(arr):
    """``arr`` gathered into the lifting layout, in its own width."""
    coef = np.empty(_coefficient_shape(arr.ndim, _nblocks(arr.shape)),
                    arr.dtype)
    return _gather(arr, coef)


def _reference_blocks(arr):
    """The stream's block-major order, spelled out: edge-pad, then the
    block grid in C order, each block's 4**d values in C order."""
    d = arr.ndim
    padded = np.pad(arr, [(0, (-s) % 4) for s in arr.shape], mode="edge")
    blocks = [padded[tuple(slice(4 * i, 4 * i + 4) for i in idx)]
              for idx in np.ndindex(*_grid(arr.shape))]
    return np.array(blocks).reshape((-1,) + (4,) * d)


class TestBlocking:
    @pytest.mark.parametrize("shape", [(16,), (8, 12), (4, 8, 12),
                                       (5,), (7, 9), (5, 6, 7)])
    def test_block_roundtrip(self, shape):
        rng = np.random.default_rng(0)
        arr = rng.integers(-1000, 1000, size=shape)
        coef = _lifting_layout(arr)
        blocks = np.empty((_nblocks(shape),) + (4,) * len(shape), arr.dtype)
        _exchange(coef, blocks, to_blocks=True)
        assert np.array_equal(blocks, _reference_blocks(arr))
        back = np.empty_like(coef)
        _exchange(back, blocks, to_blocks=False)
        restored = _dequantize_into(back, 1.0, np.empty(shape))
        assert np.array_equal(restored, arr)

    def test_partial_blocks_pad_with_edge(self):
        arr = np.array([1, 2, 3, 4, 5], dtype=np.int64)
        coef = _lifting_layout(arr)
        # coefficient-major at every rank: 4 slots of 2 blocks each
        assert coef.shape == (4, 2)
        assert list(coef[:, 1]) == [5, 5, 5, 5]

    def test_block_count(self):
        arr = np.zeros((9, 9), dtype=np.int64)
        # coefficient-major: 4x4 slots, ceil(9/4)^2 blocks each
        assert _lifting_layout(arr).shape == (4, 4, 9)

    def test_exchange_casts_to_the_destination_width(self):
        rng = np.random.default_rng(4)
        blocks = rng.integers(-1000, 1000, size=(3000, 4, 4, 4))
        coef = np.empty((4, 4, 4, 3000), np.int32)
        _exchange(coef, blocks, to_blocks=False)
        assert np.array_equal(np.moveaxis(coef, -1, 0), blocks)


def _random_layout(d, peak, seed, nblocks=40, dtype=np.int64):
    """Lifting-layout coefficients in [-peak, peak]: random blocks plus
    the extremes and the sign patterns that maximize growth.

    The alternating-sign block drives the forward lift's detail
    coefficients to 2**d * peak.  Signs (+, -, +, +) along every axis
    (smooth, level-2 detail, level-1 details) do the same for the
    inverse."""
    rng = np.random.default_rng(seed)
    coef = rng.integers(-peak, peak + 1,
                        size=_coefficient_shape(d, nblocks), dtype=np.int64)
    layout = np.moveaxis(coef, -1, 0)
    layout[0] = peak
    layout[1] = -peak
    checker = np.indices((4,) * d).sum(axis=0) % 2
    layout[2] = np.where(checker, peak, -peak)
    layout[3] = -layout[2]
    sign = np.array([1, -1, 1, 1])
    worst = sign
    for _ in range(d - 1):
        worst = np.multiply.outer(worst, sign)
    layout[4] = peak * worst
    return coef.astype(dtype)


class TestTransform:
    @pytest.mark.parametrize("ndim", [1, 2, 3, 4])
    def test_exact_inverse(self, ndim):
        for width, peak in ((np.int64, 2**40), (np.int32, 2**20)):
            coef = _random_layout(ndim, peak, seed=1, dtype=width)
            original = coef.copy()
            _fwd_lift(coef, ndim)
            assert not np.array_equal(coef, original)  # actually transformed
            _inv_lift(coef, ndim)
            assert np.array_equal(coef, original)

    def test_decorrelates_smooth_blocks(self):
        for ndim in (1, 2, 3, 4):
            ramp = np.arange(4**ndim, dtype=np.int64).reshape(
                (4,) * ndim) * 100
            coef = _lifting_layout(ramp)
            _fwd_lift(coef, ndim)
            # a linear block with step s along an axis collapses into
            # the smooth coefficient (1.5 s per axis) and the details
            # 2s, s, s
            steps = [100 * 4**(ndim - 1 - k) for k in range(ndim)]
            expected = np.zeros((4,) * ndim, np.int64)
            expected[(0,) * ndim] = sum(3 * s // 2 for s in steps)
            for k, s in enumerate(steps):
                for slot, value in ((1, 2 * s), (2, s), (3, s)):
                    at = (0,) * k + (slot,) + (0,) * (ndim - 1 - k)
                    expected[at] = value
            assert np.array_equal(coef.reshape((4,) * ndim), expected)
            if ndim >= 3:
                assert np.abs(expected).sum() < np.abs(ramp).sum() / 10

    @pytest.mark.parametrize("ndim", [1, 2, 3, 4])
    @pytest.mark.parametrize("side", ["under", "over"])
    def test_int32_and_int64_lifts_agree_at_the_gate(self, ndim, side):
        """The gate int32_fits(peak, 4**d) admits (peak + 1) * 4**d <
        2**31.  Per axis the forward lift maps a bound B to 2B and the
        inverse maps B to 2B + 1, so over d axes every intermediate
        stays within 2**d * (peak + 1): a 2**d margin on both sides.
        The worst-case blocks reach 2**d * peak.  Just past the edge
        the int32 lift is still exact; the gate sends it to int64 all
        the same."""
        edge = 2**31 // 4**ndim - 2   # the largest peak the gate admits
        peak = edge if side == "under" else edge + 1
        assert int32_fits(peak, 4**ndim) == (side == "under")
        for lift, seed in ((_fwd_lift, 2), (_inv_lift, 3)):
            wide = _random_layout(ndim, peak, seed)
            narrow = wide.astype(np.int32)
            lift(wide, ndim)
            lift(narrow, ndim)
            assert np.array_equal(narrow, wide)
            grown = int(np.abs(wide).max())
            assert 2**ndim * peak <= grown <= 2**ndim * (peak + 1)


class TestBitBudget:
    def test_block_maxbits_is_exact_up_to_2_52(self):
        k = np.arange(1, 53)
        mags = np.concatenate([2**k - 1, 2**k]).astype(np.int64)
        blocks = np.zeros((mags.size, 4, 4, 4), np.int64)
        blocks[:, 1, 2, 3] = mags
        blocks[::2] *= -1
        expected = np.concatenate([k, k + 1])
        assert np.array_equal(_block_maxbits(blocks), expected)

    def test_block_maxbits_of_a_zero_block_is_zero(self):
        assert _block_maxbits(np.zeros((2, 4, 4), np.int64)).tolist() \
            == [0, 0]


class TestModes:
    @pytest.mark.parametrize("tol", [1e-1, 1e-3, 1e-6])
    def test_accuracy_bound(self, smooth3d, tol):
        out = zfp.decompress(zfp.compress(smooth3d, zfp.MODE_ACCURACY, tol))
        assert np.abs(out - smooth3d).max() <= tol * (1 + 1e-9)

    def test_accuracy_1d_2d(self):
        rng = np.random.default_rng(2)
        for shape in [(1000,), (37, 53)]:
            arr = rng.standard_normal(shape).cumsum(axis=-1)
            out = zfp.decompress(zfp.compress(arr, zfp.MODE_ACCURACY, 1e-4))
            assert np.abs(out - arr).max() <= 1e-4 * (1 + 1e-9)

    def test_precision_more_planes_more_accurate(self, smooth3d):
        errors = []
        for planes in (8, 16, 32):
            out = zfp.decompress(
                zfp.compress(smooth3d, zfp.MODE_PRECISION, planes))
            errors.append(np.abs(out - smooth3d).max())
        assert errors[0] > errors[1] > errors[2]

    def test_rate_controls_size(self, smooth3d):
        sizes = {}
        for rate in (4, 8, 16):
            sizes[rate] = len(zfp.compress(smooth3d, zfp.MODE_RATE, rate))
        n = smooth3d.size
        # achieved bits/value should be within 2x of requested + overhead
        for rate, size in sizes.items():
            achieved = 8.0 * size / n
            assert achieved < rate * 2 + 4
        assert sizes[4] < sizes[16]

    def test_reversible_bit_exact_float64(self, smooth3d):
        out = zfp.decompress(zfp.compress(smooth3d, zfp.MODE_REVERSIBLE, 0))
        assert out.dtype == smooth3d.dtype
        assert np.array_equal(out, smooth3d)

    def test_reversible_bit_exact_float32(self, smooth3d):
        data = smooth3d.astype(np.float32)
        out = zfp.decompress(zfp.compress(data, zfp.MODE_REVERSIBLE, 0))
        assert np.array_equal(out, data)

    def test_reversible_negative_zero_and_denormals(self):
        data = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308])
        out = zfp.decompress(zfp.compress(data, zfp.MODE_REVERSIBLE, 0))
        assert np.array_equal(out.view(np.uint64), data.view(np.uint64))

    def test_reversible_integers(self):
        rng = np.random.default_rng(3)
        data = rng.integers(-10000, 10000, size=(20, 20)).astype(np.int64)
        out = zfp.decompress(zfp.compress(data, zfp.MODE_REVERSIBLE, 0))
        assert np.array_equal(out, data)

    def test_all_zero_input(self):
        data = np.zeros((8, 8, 8))
        for mode, p in [(zfp.MODE_ACCURACY, 1e-3), (zfp.MODE_PRECISION, 16),
                        (zfp.MODE_RATE, 8)]:
            out = zfp.decompress(zfp.compress(data, mode, p))
            assert np.array_equal(out, data)

    def test_four_dims_supported(self):
        rng = np.random.default_rng(9)
        arr = rng.standard_normal((5, 6, 7, 8)).cumsum(axis=0)
        out = zfp.decompress(zfp.compress(arr, zfp.MODE_ACCURACY, 1e-3))
        assert np.abs(out - arr).max() <= 1e-3 * (1 + 1e-9)

    def test_five_dims_rejected(self):
        with pytest.raises(InvalidDimensionsError):
            zfp.compress(np.zeros((2,) * 5), zfp.MODE_ACCURACY, 1e-3)

    def test_transform_off_still_bounded(self, smooth3d):
        stream = zfp.compress(smooth3d, zfp.MODE_ACCURACY, 1e-4,
                              transform=False)
        out = zfp.decompress(stream)
        assert np.abs(out - smooth3d).max() <= 1e-4 * (1 + 1e-9)

    def test_transform_helps_on_smooth_blocks(self, smooth3d):
        """The decorrelating transform must earn its keep on data whose
        within-block variation dominates (high-frequency smooth data)."""
        wavy = np.sin(np.linspace(0, 300, 4096)).reshape(16, 16, 16) * 100
        on = len(zfp.compress(wavy, zfp.MODE_ACCURACY, 1e-4))
        off = len(zfp.compress(wavy, zfp.MODE_ACCURACY, 1e-4,
                               transform=False))
        assert on < off

    def test_bad_tolerance_rejected(self, smooth3d):
        with pytest.raises(ValueError):
            zfp.compress(smooth3d, zfp.MODE_ACCURACY, 0.0)

    def test_dims_mismatch_on_decompress(self, smooth3d):
        stream = zfp.compress(smooth3d, zfp.MODE_ACCURACY, 1e-3)
        with pytest.raises(CorruptStreamError):
            zfp.decompress(stream, expected_dims=(2, 2))


    @pytest.mark.parametrize("code_peak", [2**25 - 2, 2**40])
    def test_coefficients_past_the_int32_gate_round_trip(self, code_peak):
        """Codes the compress gate keeps int32 (2**25 - 2 in 3-D) lift
        to coefficients past the decompress gate, and 2**40 is past
        both: decompress takes int64 and is exact on the codes."""
        checker = np.indices((8, 8, 8)).sum(axis=0) % 2
        data = np.where(checker, code_peak, -code_peak).astype(np.float64)
        data[0, 0, :4] = [code_peak, 3, -7, 0]
        coef = _lifting_layout(data.astype(np.int64))
        _fwd_lift(coef, 3)
        assert not int32_fits(int(np.abs(coef).max()), 4**3)
        # tolerance 0.5 makes every code equal its value
        out = zfp.decompress(zfp.compress(data, zfp.MODE_ACCURACY, 0.5))
        assert np.array_equal(out, data)


class TestPaddingInefficiency:
    """Paper Section V: dims smaller than the block size pad wastefully."""

    def test_degenerate_third_dim_worse_than_2d(self, letkf_small):
        slab = letkf_small[:1]  # (1, 24, 24)
        as_3d = zfp.compress(slab, zfp.MODE_ACCURACY, 1e-3)
        as_2d = zfp.compress(slab[0], zfp.MODE_ACCURACY, 1e-3)
        assert len(as_2d) <= len(as_3d)


class TestStreamFieldAPI:
    def test_stream_defaults(self):
        stream = zfp.zfp_stream_open()
        assert stream.mode == zfp.MODE_ACCURACY

    def test_mode_setters(self):
        s = zfp.zfp_stream_open()
        zfp.zfp_stream_set_precision(s, 20)
        assert s.mode == zfp.MODE_PRECISION and s.parameter == 20
        zfp.zfp_stream_set_rate(s, 8.0)
        assert s.mode == zfp.MODE_RATE
        zfp.zfp_stream_set_reversible(s)
        assert s.mode == zfp.MODE_REVERSIBLE
        zfp.zfp_stream_set_accuracy(s, 1e-4)
        assert s.mode == zfp.MODE_ACCURACY

    def test_setter_validation(self):
        s = zfp.zfp_stream_open()
        with pytest.raises(ValueError):
            zfp.zfp_stream_set_precision(s, 0)
        with pytest.raises(ValueError):
            zfp.zfp_stream_set_rate(s, 0.5)
        with pytest.raises(ValueError):
            zfp.zfp_stream_set_accuracy(s, -1.0)

    def test_fortran_dim_order(self, smooth3d):
        """nx is the fastest dimension: C shape (a,b,c) -> field (c,b,a)."""
        a, b, c = smooth3d.shape
        field = zfp.zfp_field_3d(smooth3d.reshape(-1), zfp.zfp_type_double,
                                 c, b, a)
        assert field.c_order_dims() == (a, b, c)
        s = zfp.zfp_stream_open()
        zfp.zfp_stream_set_accuracy(s, 1e-3)
        buf = zfp.zfp_compress(s, field)
        out_field = zfp.zfp_field_3d(None, zfp.zfp_type_double, c, b, a)
        out = zfp.zfp_decompress(s, out_field, buf)
        assert np.abs(out - smooth3d).max() <= 1e-3 * (1 + 1e-9)

    def test_field_2d_argument_order(self):
        field = zfp.zfp_field_2d(None, zfp.zfp_type_float, 10, 20)
        assert field.nx == 10 and field.ny == 20
        assert field.c_order_dims() == (20, 10)

    def test_decompress_into_existing_buffer(self, smooth3d):
        s = zfp.zfp_stream_open()
        zfp.zfp_stream_set_accuracy(s, 1e-3)
        a, b, c = smooth3d.shape
        buf = zfp.zfp_compress(
            s, zfp.zfp_field_3d(smooth3d.reshape(-1), zfp.zfp_type_double,
                                c, b, a))
        dest = np.zeros(smooth3d.size)
        field = zfp.zfp_field_3d(dest, zfp.zfp_type_double, c, b, a)
        zfp.zfp_decompress(s, field, buf)
        assert np.abs(dest.reshape(smooth3d.shape)
                      - smooth3d).max() <= 1e-3 * (1 + 1e-9)

    def test_maximum_size_is_bound(self, smooth3d):
        s = zfp.zfp_stream_open()
        zfp.zfp_stream_set_accuracy(s, 1e-6)
        a, b, c = smooth3d.shape
        field = zfp.zfp_field_3d(smooth3d.reshape(-1), zfp.zfp_type_double,
                                 c, b, a)
        assert len(zfp.zfp_compress(s, field)) <= \
            zfp.zfp_stream_maximum_size(s, field)

    def test_compress_without_data_raises(self):
        s = zfp.zfp_stream_open()
        with pytest.raises(ValueError):
            zfp.zfp_compress(s, zfp.zfp_field_1d(None, zfp.zfp_type_float, 4))


def _with_shift_table(stream, table):
    """``stream`` with its zfp shift table replaced by ``table``."""
    dtype, dims, doubles, ints, pos = read_header(stream, b"ZFP1")
    payload = bytes(stream[pos + ints[1]:])
    return write_header(b"ZFP1", dtype, dims, doubles=doubles,
                        ints=(ints[0], len(table)) + tuple(ints[2:])) \
        + table + payload


class TestShiftTable:
    @pytest.fixture
    def stream(self):
        data = np.random.default_rng(5).standard_normal((8, 8, 8))
        return zfp.compress(data, zfp.MODE_PRECISION, 12)

    def test_zlib_bomb_fails_typed_with_a_small_peak(self, stream):
        deflate = zlib.compressobj(9)
        bomb = b"".join(deflate.compress(bytes(1 << 20))
                        for _ in range(64)) + deflate.flush()
        forged = _with_shift_table(stream, bomb)
        tracemalloc.start()
        try:
            with pytest.raises(CorruptStreamError):
                zfp.decompress(forged)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("size", [7, 9])
    def test_short_or_long_table_fails_typed(self, stream, size):
        # 8^3 has 8 blocks, one shift each
        forged = _with_shift_table(stream, zlib.compress(bytes(size)))
        with pytest.raises(CorruptStreamError):
            zfp.decompress(forged)

    def test_bad_table_fails_typed(self, stream):
        with pytest.raises(CorruptStreamError):
            zfp.decompress(_with_shift_table(stream, b"not a zlib stream"))

    def test_untouched_table_still_decodes(self, stream):
        dtype, dims, doubles, ints, pos = read_header(stream, b"ZFP1")
        table = bytes(stream[pos:pos + ints[1]])
        assert _with_shift_table(stream, table) == stream
