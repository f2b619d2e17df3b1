"""Tests for the SZ native: pipeline correctness and API ergonomics."""

import tracemalloc
import zlib

import numpy as np
import pytest

from repro.core import CorruptStreamError
from repro.encoders.headers import read_header
from repro.native import sz
from repro.native.sz import (
    ABS,
    ABS_AND_REL,
    ABS_OR_REL,
    NORM,
    PSNR,
    PW_REL,
    REL,
    SZNotInitializedError,
    sz_params,
)


@pytest.fixture(autouse=True)
def _sz_lifecycle():
    """Each test runs against a fresh global store."""
    sz.SZ_Finalize()
    yield
    sz.SZ_Finalize()


class TestErrorBoundModes:
    def test_abs_bound(self, smooth3d):
        params = sz_params(errorBoundMode=ABS, absErrBound=1e-3)
        out = sz.decompress(sz.compress(smooth3d.copy(), params))
        assert np.abs(out - smooth3d).max() <= 1e-3 * (1 + 1e-9)

    def test_rel_bound_scales_with_range(self, smooth3d):
        params = sz_params(errorBoundMode=REL, relBoundRatio=1e-4)
        out = sz.decompress(sz.compress(smooth3d.copy(), params))
        value_range = smooth3d.max() - smooth3d.min()
        assert np.abs(out - smooth3d).max() <= 1e-4 * value_range * (1 + 1e-9)

    def test_abs_and_rel_takes_min(self, smooth3d):
        value_range = smooth3d.max() - smooth3d.min()
        params = sz_params(errorBoundMode=ABS_AND_REL, absErrBound=1e-2,
                           relBoundRatio=1e-5)
        eb = sz.effective_abs_bound(smooth3d, params)
        assert eb == pytest.approx(min(1e-2, 1e-5 * value_range))

    def test_abs_or_rel_takes_max(self, smooth3d):
        value_range = smooth3d.max() - smooth3d.min()
        params = sz_params(errorBoundMode=ABS_OR_REL, absErrBound=1e-2,
                           relBoundRatio=1e-5)
        eb = sz.effective_abs_bound(smooth3d, params)
        assert eb == pytest.approx(max(1e-2, 1e-5 * value_range))

    def test_psnr_mode_achieves_target(self, smooth3d):
        params = sz_params(errorBoundMode=PSNR, psnr=60.0)
        out = sz.decompress(sz.compress(smooth3d.copy(), params))
        mse = float(np.mean((out - smooth3d) ** 2))
        value_range = smooth3d.max() - smooth3d.min()
        psnr = 20 * np.log10(value_range) - 10 * np.log10(mse)
        # the uniform-quantizer model makes the target conservative
        assert psnr >= 60.0 - 0.5

    def test_pw_rel_mode(self):
        rng = np.random.default_rng(0)
        data = np.exp(rng.uniform(-3, 6, size=(20, 20, 20)))  # positive
        params = sz_params(errorBoundMode=PW_REL, pw_relBoundRatio=1e-3)
        out = sz.decompress(sz.compress(data.copy(), params))
        rel = np.abs((out - data) / data)
        assert rel.max() <= 1e-3 * (1 + 1e-6)

    def test_pw_rel_preserves_signs_and_zeros(self):
        data = np.array([[-1.0, 0.0, 2.0], [0.0, -3.5, 4.0],
                         [5.0, 0.0, -6.0]])
        params = sz_params(errorBoundMode=PW_REL, pw_relBoundRatio=1e-4)
        out = sz.decompress(sz.compress(data.copy(), params))
        assert np.array_equal(out == 0.0, data == 0.0)
        assert np.array_equal(np.sign(out), np.sign(data))

    def test_norm_mode_bounds_rms(self, smooth3d):
        params = sz_params(errorBoundMode=NORM, normErrBound=1e-2)
        out = sz.decompress(sz.compress(smooth3d.copy(), params))
        l2 = float(np.linalg.norm((out - smooth3d).ravel()))
        assert l2 <= 1e-2 * (1 + 1e-6)


def _with_side_channel(stream: bytes, side: bytes) -> bytes:
    """A PW_REL ``stream`` with its sign/zero side channel replaced."""
    *_, pos = read_header(stream, b"SZ02")
    n_payload = int.from_bytes(stream[pos:pos + 8], "little")
    return stream[:pos + 8 + n_payload] + side


class TestPwRelSideChannel:
    """The side channel inflates to exactly ``2 * ceil(n / 8)`` bytes."""

    @pytest.fixture
    def stream(self):
        data = np.random.default_rng(3).standard_normal((8, 8, 8))
        data[0, 0, :4] = 0.0
        return sz.compress(data, sz_params(errorBoundMode=PW_REL,
                                           pw_relBoundRatio=1e-3))

    def test_zlib_bomb_fails_typed_with_a_small_peak(self, stream):
        deflate = zlib.compressobj(9)
        bomb = b"".join(deflate.compress(bytes(1 << 20))
                        for _ in range(64)) + deflate.flush()
        forged = _with_side_channel(stream, bomb)
        tracemalloc.start()
        try:
            with pytest.raises(CorruptStreamError):
                sz.decompress(forged)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("size", [127, 129])
    def test_short_or_long_side_channel_fails_typed(self, stream, size):
        # 8^3 values: 64 sign bytes and 64 zero bytes
        forged = _with_side_channel(stream, zlib.compress(bytes(size)))
        with pytest.raises(CorruptStreamError):
            sz.decompress(forged)

    @pytest.mark.parametrize("side", [b"not a zlib stream", b""])
    def test_bad_side_channel_fails_typed(self, stream, side):
        with pytest.raises(CorruptStreamError):
            sz.decompress(_with_side_channel(stream, side))

    def test_truncated_payload_fails_typed(self, stream):
        *_, pos = read_header(stream, b"SZ02")
        with pytest.raises(CorruptStreamError):
            sz.decompress(stream[:pos + 5])

    def test_untouched_side_channel_still_decodes(self, stream):
        *_, pos = read_header(stream, b"SZ02")
        n_payload = int.from_bytes(stream[pos:pos + 8], "little")
        side = stream[pos + 8 + n_payload:]
        assert _with_side_channel(stream, side) == stream


class TestPipelineVariants:
    def test_huffman_entropy_coder(self, smooth3d):
        params = sz_params(absErrBound=1e-3, entropyCoder="huffman")
        out = sz.decompress(sz.compress(smooth3d.copy(), params))
        assert np.abs(out - smooth3d).max() <= 1e-3 * (1 + 1e-9)

    @pytest.mark.parametrize("backend", ["zlib", "bz2", "lzma", "none"])
    def test_lossless_backends(self, smooth3d, backend):
        params = sz_params(absErrBound=1e-3, losslessCompressor=backend)
        out = sz.decompress(sz.compress(smooth3d.copy(), params))
        assert np.abs(out - smooth3d).max() <= 1e-3 * (1 + 1e-9)

    def test_prediction_off_still_bounded(self, smooth3d):
        params = sz_params(absErrBound=1e-3, predictionMode="none")
        out = sz.decompress(sz.compress(smooth3d.copy(), params))
        assert np.abs(out - smooth3d).max() <= 1e-3 * (1 + 1e-9)

    def test_lorenzo_beats_no_prediction_on_smooth(self, smooth3d):
        with_pred = sz.compress(smooth3d.copy(), sz_params(absErrBound=1e-4))
        without = sz.compress(smooth3d.copy(),
                              sz_params(absErrBound=1e-4,
                                        predictionMode="none"))
        assert len(with_pred) < len(without)

    def test_best_compression_not_larger(self, smooth3d):
        fast = sz.compress(smooth3d.copy(),
                           sz_params(absErrBound=1e-4,
                                     szMode=sz.SZ_BEST_SPEED))
        best = sz.compress(smooth3d.copy(),
                           sz_params(absErrBound=1e-4,
                                     szMode=sz.SZ_BEST_COMPRESSION))
        assert len(best) <= len(fast) * 1.02

    def test_float32_input(self, smooth3d):
        data = smooth3d.astype(np.float32)
        params = sz_params(absErrBound=1e-3)
        out = sz.decompress(sz.compress(data.copy(), params))
        assert out.dtype == np.float32
        assert np.abs(out.astype(np.float64)
                      - data.astype(np.float64)).max() <= 1e-3 * (1 + 1e-5)

    def test_integer_input(self):
        rng = np.random.default_rng(1)
        data = rng.integers(0, 1000, size=(16, 16)).astype(np.int32)
        params = sz_params(absErrBound=0.4)  # < 0.5: ints round-trip exactly
        out = sz.decompress(sz.compress(data.copy(), params))
        assert np.array_equal(out, data)

    def test_tighter_bound_larger_stream(self, smooth3d):
        loose = sz.compress(smooth3d.copy(), sz_params(absErrBound=1e-2))
        tight = sz.compress(smooth3d.copy(), sz_params(absErrBound=1e-6))
        assert len(tight) > len(loose)

    def test_dims_mismatch_on_decompress_raises(self, smooth3d):
        stream = sz.compress(smooth3d.copy(), sz_params(absErrBound=1e-3))
        with pytest.raises(CorruptStreamError):
            sz.decompress(stream, expected_dims=(1, 2, 3))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            sz_params(errorBoundMode=999).validate()
        with pytest.raises(ValueError):
            sz_params(absErrBound=-1.0).validate()
        with pytest.raises(ValueError):
            sz_params(losslessCompressor="zstd").validate()


class TestGlobalAPI:
    def test_requires_init(self, smooth3d):
        with pytest.raises(SZNotInitializedError):
            sz.SZ_compress(sz.SZ_DOUBLE, smooth3d, 0, 0, 24, 24, 24)

    def test_init_compress_finalize(self, smooth3d):
        sz.SZ_Init(sz_params(absErrBound=1e-3))
        assert sz.SZ_is_initialized()
        stream = sz.SZ_compress(sz.SZ_DOUBLE, smooth3d, 0, 0, 24, 24, 24)
        out = sz.SZ_decompress(sz.SZ_DOUBLE, stream, 0, 0, 24, 24, 24)
        assert np.abs(out - smooth3d).max() <= 1e-3 * (1 + 1e-9)
        sz.SZ_Finalize()
        assert not sz.SZ_is_initialized()

    def test_compress_args_overrides_and_leaks_to_global(self, smooth3d):
        """Real SZ's surprising semantics: overrides persist globally."""
        sz.SZ_Init(sz_params(absErrBound=1.0))
        sz.SZ_compress_args(sz.SZ_DOUBLE, smooth3d, 0, 0, 24, 24, 24,
                            errBoundMode=ABS, absErrBound=1e-5)
        # the next plain SZ_compress now sees the overridden bound
        stream = sz.SZ_compress(sz.SZ_DOUBLE, smooth3d, 0, 0, 24, 24, 24)
        out = sz.SZ_decompress(sz.SZ_DOUBLE, stream, 0, 0, 24, 24, 24)
        assert np.abs(out - smooth3d).max() <= 1e-5 * (1 + 1e-9)

    def test_reversed_dim_arguments(self):
        """r1 is the fastest dimension: a (2, 3) C array is r2=2, r1=3."""
        sz.SZ_Init(sz_params(absErrBound=0.4))
        data = np.arange(6.0).reshape(2, 3)
        stream = sz.SZ_compress(sz.SZ_DOUBLE, data, 0, 0, 0, 2, 3)
        out = sz.SZ_decompress(sz.SZ_DOUBLE, stream, 0, 0, 0, 2, 3)
        assert out.shape == (2, 3)

    def test_zero_dims_rejected(self, smooth3d):
        sz.SZ_Init(sz_params())
        with pytest.raises(ValueError):
            sz.SZ_compress(sz.SZ_DOUBLE, smooth3d, 0, 0, 0, 0, 0)

    def test_unknown_type_constant_rejected(self, smooth3d):
        sz.SZ_Init(sz_params())
        with pytest.raises(ValueError):
            sz.SZ_compress(99, smooth3d, 0, 0, 24, 24, 24)


class TestRegressionPredictor:
    """SZ 2.x's block regression predictor and adaptive selection."""

    @pytest.mark.parametrize("mode", ["regression", "adaptive"])
    @pytest.mark.parametrize("eb", [1e-2, 1e-4])
    def test_bound_honored(self, smooth3d, mode, eb):
        params = sz_params(absErrBound=eb, predictionMode=mode)
        out = sz.decompress(sz.compress(smooth3d.copy(), params))
        assert np.abs(out - smooth3d).max() <= eb * (1 + 1e-9)

    @pytest.mark.parametrize("shape", [(100,), (13, 17), (13, 17, 29)])
    def test_odd_shapes(self, shape):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal(shape).cumsum(axis=-1)
        params = sz_params(absErrBound=1e-4, predictionMode="adaptive")
        out = sz.decompress(sz.compress(arr.copy(), params))
        assert np.abs(out - arr).max() <= 1e-4 * (1 + 1e-9)

    def test_regression_wins_on_noisy_data(self):
        """On noise-dominated data the Lorenzo differences amplify the
        noise by 2 per dimension while the per-block fit does not —
        regression's home turf (why real SZ added it)."""
        rng = np.random.default_rng(5)
        arr = rng.standard_normal((48, 48))
        reg = sz_params(absErrBound=1e-2, predictionMode="regression")
        lor = sz_params(absErrBound=1e-2, predictionMode="lorenzo")
        size_reg = len(sz.compress(arr.copy(), reg))
        size_lor = len(sz.compress(arr.copy(), lor))
        out = sz.decompress(sz.compress(arr.copy(), reg))
        assert np.abs(out - arr).max() <= 1e-2 * (1 + 1e-9)
        assert size_reg < size_lor

    def test_lorenzo_wins_on_polynomial_data(self):
        """Piecewise-polynomial data is Lorenzo's home turf (the n-d
        differences annihilate polynomial trends entirely)."""
        i, j = np.meshgrid(np.arange(48.0), np.arange(48.0), indexing="ij")
        arr = (np.floor(i / 6) * i + np.floor(j / 6) * 3 * j) * 1.0
        reg = sz_params(absErrBound=1e-3, predictionMode="regression")
        lor = sz_params(absErrBound=1e-3, predictionMode="lorenzo")
        assert len(sz.compress(arr.copy(), lor)) < \
            len(sz.compress(arr.copy(), reg))

    def test_adaptive_never_much_worse_than_best_pure(self, smooth3d):
        sizes = {}
        for mode in ("lorenzo", "regression", "adaptive"):
            params = sz_params(absErrBound=1e-4, predictionMode=mode)
            sizes[mode] = len(sz.compress(smooth3d.copy(), params))
        # adaptive may pay selector overhead but must beat the worst arm
        assert sizes["adaptive"] <= max(sizes["lorenzo"],
                                        sizes["regression"]) * 1.05

    def test_adaptive_selector_varies(self):
        """Mixed data should genuinely use both predictors."""
        from repro.native.sz.regression import (
            _block_lorenzo_codes,
            _design_matrix,
            _regression_fit,
            _to_blocks,
        )

        rng = np.random.default_rng(1)
        smooth = np.linspace(0, 1, 36 * 36).reshape(36, 36).cumsum(axis=0)
        rough = rng.standard_normal((36, 36))
        arr = np.concatenate([smooth, rough], axis=0)
        blocks = _to_blocks(arr)
        design = _design_matrix(2)
        pinv = np.linalg.pinv(design)
        coef_codes, coefs_q = _regression_fit(blocks, pinv, 1e-4)
        import numpy as _np

        reg_resid = _np.abs(blocks - coefs_q @ design.T).sum(axis=1)
        lor = _np.abs(_block_lorenzo_codes(blocks, 1e-4, 2)).sum(axis=1)
        # not all blocks prefer the same predictor on this mixed field
        prefer_reg = reg_resid / (2e-4) < lor
        assert 0 < int(prefer_reg.sum()) < prefer_reg.size

    def test_float32_input(self, smooth3d):
        data = smooth3d.astype(np.float32)
        params = sz_params(absErrBound=1e-3, predictionMode="adaptive")
        out = sz.decompress(sz.compress(data.copy(), params))
        assert out.dtype == np.float32
        assert np.abs(out.astype(np.float64)
                      - data.astype(np.float64)).max() <= 1e-3 * (1 + 1e-5)

    def test_through_plugin(self, smooth3d, library):
        comp = library.get_compressor("sz")
        assert comp.set_options({"sz:prediction_mode": "adaptive",
                                 "pressio:abs": 1e-4}) == 0
        from repro.core import DType, PressioData

        data = PressioData.from_numpy(smooth3d)
        out = comp.decompress(comp.compress(data),
                              PressioData.empty(DType.DOUBLE,
                                                smooth3d.shape))
        assert np.abs(np.asarray(out.to_numpy())
                      - smooth3d).max() <= 1e-4 * (1 + 1e-9)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            sz_params(predictionMode="quadratic").validate()
