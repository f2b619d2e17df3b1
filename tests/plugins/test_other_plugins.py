"""Tests for lossless, rounding, noop, and external plugins."""

import numpy as np
import pytest

from repro.compressors.lossless import LOSSLESS_PLUGIN_IDS
from repro.compressors.rounding import mask_mantissa
from repro.core import DType, InvalidTypeError, PressioData, PressioError
from repro.core.status import ErrorCode
from tests.conftest import roundtrip


class TestLosslessPlugins:
    @pytest.mark.parametrize("plugin_id", LOSSLESS_PLUGIN_IDS)
    def test_bit_exact_roundtrip(self, library, smooth3d, plugin_id):
        comp = library.get_compressor(plugin_id)
        out = roundtrip(comp, smooth3d)
        assert np.array_equal(out, smooth3d)

    @pytest.mark.parametrize("np_dtype", [np.int16, np.uint8, np.float32,
                                          np.int64])
    def test_arbitrary_dtypes(self, library, np_dtype):
        """Type-oblivious codecs accept any dtype via the byte stream."""
        rng = np.random.default_rng(0)
        arr = (rng.integers(0, 100, size=(7, 9)) % 100).astype(np_dtype)
        comp = library.get_compressor("zlib")
        assert np.array_equal(roundtrip(comp, arr), arr)

    def test_shape_restored_from_header(self, library):
        comp = library.get_compressor("bz2")
        arr = np.arange(30.0).reshape(5, 6)
        data = PressioData.from_numpy(arr)
        compressed = comp.compress(data)
        # template with no dims: shape comes from the stream itself
        out = comp.decompress(compressed, PressioData.empty(DType.DOUBLE))
        assert out.dims == (5, 6)

    def test_zlib_compresses_structured(self, library):
        comp = library.get_compressor("zlib")
        arr = np.zeros((64, 64))
        compressed = comp.compress(PressioData.from_numpy(arr))
        assert compressed.size_in_bytes < arr.nbytes / 50


class TestMaskMantissa:
    def test_keep_all_bits_identity(self):
        arr = np.array([1.2345678901234567])
        assert np.array_equal(mask_mantissa(arr, 52), arr)

    def test_relative_error_bound(self):
        rng = np.random.default_rng(1)
        arr = rng.uniform(-1e6, 1e6, size=1000)
        for keep in (8, 16, 24):
            masked = mask_mantissa(arr, keep)
            rel = np.abs((masked - arr) / arr)
            assert rel.max() <= 2.0 ** -keep

    def test_float32_support(self):
        arr = np.array([3.14159], dtype=np.float32)
        masked = mask_mantissa(arr, 10)
        assert masked.dtype == np.float32
        assert abs(masked[0] - arr[0]) / arr[0] <= 2.0 ** -10

    def test_rejects_integers(self):
        with pytest.raises(InvalidTypeError):
            mask_mantissa(np.arange(5), 8)


class TestRoundingPlugins:
    def test_bit_grooming_improves_ratio(self, library, nyx_small):
        data = nyx_small.astype(np.float64)
        plain = library.get_compressor("zlib")
        groomed = library.get_compressor("bit_grooming")
        groomed.set_options({"bit_grooming:nsb": 10})
        plain_size = plain.compress(
            PressioData.from_numpy(data)).size_in_bytes
        groomed_size = groomed.compress(
            PressioData.from_numpy(data)).size_in_bytes
        assert groomed_size < plain_size

    def test_bit_grooming_respects_nsb(self, library, nyx_small):
        comp = library.get_compressor("bit_grooming")
        comp.set_options({"bit_grooming:nsb": 12})
        out = roundtrip(comp, nyx_small)
        rel = np.abs((out - nyx_small) / nyx_small)
        assert rel.max() <= 2.0 ** -12

    def test_digit_rounding_keeps_digits(self, library, nyx_small):
        comp = library.get_compressor("digit_rounding")
        comp.set_options({"digit_rounding:prec": 5})
        out = roundtrip(comp, nyx_small)
        rel = np.abs((out - nyx_small) / nyx_small)
        assert rel.max() <= 10.0 ** -4.5  # ceil(5*log2(10)) bits kept

    def test_bad_nsb_rejected(self, library):
        comp = library.get_compressor("bit_grooming")
        assert comp.set_options({"bit_grooming:nsb": 99}) != 0

    def test_bad_prec_rejected(self, library):
        comp = library.get_compressor("digit_rounding")
        assert comp.set_options({"digit_rounding:prec": 0}) != 0

    def test_rejects_integer_input(self, library):
        comp = library.get_compressor("bit_grooming")
        with pytest.raises(InvalidTypeError):
            comp.compress(PressioData.from_numpy(np.arange(10)))


class TestNoopPlugin:
    def test_roundtrip_identity(self, library, smooth3d):
        noop = library.get_compressor("noop")
        assert np.array_equal(roundtrip(noop, smooth3d), smooth3d)

    def test_ratio_near_one(self, library, smooth3d):
        noop = library.get_compressor("noop")
        compressed = noop.compress(PressioData.from_numpy(smooth3d))
        assert compressed.size_in_bytes == pytest.approx(smooth3d.nbytes,
                                                         rel=0.01)

    def test_preserves_dtype_and_dims(self, library):
        noop = library.get_compressor("noop")
        arr = np.arange(12, dtype=np.int16).reshape(3, 4)
        data = PressioData.from_numpy(arr)
        out = noop.decompress(noop.compress(data),
                              PressioData.empty(DType.INT16, (3, 4)))
        assert out.dtype == DType.INT16
        assert out.dims == (3, 4)


class TestFpzipOptions:
    """fpzip keeps its precision and header options for API fidelity;
    the native is always full-precision lossless with a header, so it
    accepts only those values and rejects what it cannot honour."""

    @pytest.mark.parametrize("options", [{"fpzip:prec": 16},
                                         {"fpzip:has_header": False},
                                         {"fpzip:prec": 16,
                                          "fpzip:level": 6}])
    def test_rejects_what_it_cannot_honour(self, library, options):
        comp = library.get_compressor("fpzip")
        before = comp.get_options()
        assert comp.set_options(options) == ErrorCode.INVALID_OPTION
        assert comp.check_options(options) == ErrorCode.INVALID_OPTION
        assert comp.get_options() == before

    def test_accepts_the_values_it_honours(self, library, smooth3d):
        comp = library.get_compressor("fpzip")
        assert comp.set_options({"fpzip:prec": 0, "fpzip:has_header": True,
                                 "fpzip:level": 6}) == 0
        opts = comp.get_options()
        assert (opts.get("fpzip:prec"), opts.get("fpzip:has_header"),
                opts.get("fpzip:level")) == (0, True, 6)
        assert np.array_equal(roundtrip(comp, smooth3d), smooth3d)


@pytest.mark.slow
class TestExternalPlugin:
    def test_out_of_process_roundtrip(self, library, smooth3d):
        ext = library.get_compressor("external")
        ext.set_options({
            "external:compressor": "sz",
            "external:config_json": '{"pressio:abs": 1e-4}',
        })
        out = roundtrip(ext, smooth3d)
        assert np.abs(out - smooth3d).max() <= 1e-4 * (1 + 1e-9)

    def test_worker_failure_reported(self, library, smooth3d):
        ext = library.get_compressor("external")
        ext.set_options({"external:compressor": "mgard"})
        bad = PressioData.from_numpy(np.zeros((2, 2)))  # mgard dims < 3
        with pytest.raises(PressioError, match="worker"):
            ext.compress(bad)

    def test_bad_json_rejected_early(self, library):
        ext = library.get_compressor("external")
        assert ext.set_options({"external:config_json": "{not json"}) != 0
