"""Coverage for smaller corners across modules."""

import numpy as np
import pytest

from repro import capi
from repro.core import (
    CastLevel,
    DType,
    InvalidOptionError,
    Option,
    OptionType,
    PressioData,
    PressioOptions,
)


class TestOptionCorners:
    def test_bool_option_widens_to_ints(self):
        opt = Option(True, OptionType.BOOL)
        assert opt.cast(OptionType.INT32).get() == 1

    def test_option_equality(self):
        assert Option(1.5) == Option(1.5)
        assert Option(1.5) != Option(2.5)
        assert Option(1, OptionType.INT32) != Option(1, OptionType.INT64)

    def test_option_repr_contains_type(self):
        assert "DOUBLE" in repr(Option(1.5))

    def test_set_after_unset(self):
        opt = Option.unset(OptionType.INT32)
        opt.set(9)
        assert opt.get() == 9

    def test_string_cast_from_number(self):
        opt = Option(5, OptionType.INT64)
        with pytest.raises(InvalidOptionError):
            # numeric -> string requires implicit? no: _WIDENS has no
            # string path, and implicit narrowing must round trip; a
            # string does not convert back to int64 so it is rejected
            opt.cast(OptionType.STRING, CastLevel.EXPLICIT)

    def test_float_to_int_rejects_fractional_even_implicit(self):
        with pytest.raises(InvalidOptionError):
            Option(2.5, OptionType.DOUBLE).cast(OptionType.INT8,
                                                CastLevel.IMPLICIT)


class TestCapiCorners:
    def test_nonowning_data_shares_memory(self):
        arr = np.arange(6.0)
        data = capi.pressio_data_new_nonowning(
            capi.pressio_double_dtype, arr, 1, [6])
        arr[0] = 42.0
        assert capi.pressio_data_ptr(data)[0] == 42.0

    def test_options_copy_and_merge(self):
        a = capi.pressio_options_new()
        capi.pressio_options_set_integer(a, "x", 1)
        b = capi.pressio_options_copy(a)
        capi.pressio_options_set_integer(b, "x", 2)
        assert capi.pressio_options_get_integer(a, "x") == (0, 1)
        merged = capi.pressio_options_merge(a, b)
        assert capi.pressio_options_get_integer(merged, "x") == (0, 2)

    def test_key_status(self):
        opts = capi.pressio_options_new()
        assert capi.pressio_options_key_status(opts, "k") == \
            "key_does_not_exist"
        capi.pressio_options_set_double(opts, "k", 1.0)
        assert capi.pressio_options_key_status(opts, "k") == "key_set"

    def test_free_functions_are_safe(self):
        lib = capi.pressio_instance()
        metrics = capi.pressio_new_metrics(lib, ["size"], 1)
        capi.pressio_metrics_free(metrics)
        io = capi.pressio_get_io(lib, "posix")
        capi.pressio_io_free(io)
        opts = capi.pressio_options_new()
        capi.pressio_options_free(opts)
        capi.pressio_release(lib)

    def test_data_new_empty_with_dims(self):
        data = capi.pressio_data_new_empty(capi.pressio_float_dtype, 2,
                                           [3, 4])
        assert capi.pressio_data_num_dimensions(data) == 2
        assert not data.has_data()


class TestEncoderCorruptPaths:
    def test_huffman_exhausted_stream(self):
        from repro.encoders.huffman import HuffmanCodec

        codec = HuffmanCodec.from_data(
            np.array([0, 0, 1, 1, 2], dtype=np.uint64))
        payload, _ = codec.encode(np.array([0, 1], dtype=np.uint64))
        with pytest.raises(ValueError, match="exhausted"):
            codec.decode(payload, 1000)

    def test_varint_array_overlong_rejected(self):
        from repro.encoders.varint import varint_decode_array

        # 11 continuation bytes: longer than any valid uint64 varint
        blob = b"\xff" * 11 + b"\x01"
        with pytest.raises(ValueError, match="too long"):
            varint_decode_array(blob, 1)

    def test_bitwriter_full_width(self):
        from repro.encoders.bitstream import BitReader, BitWriter

        w = BitWriter()
        w.write(2**64 - 1, 64)
        assert BitReader(w.getvalue()).read(64) == 2**64 - 1

    def test_rle_single_value(self):
        from repro.encoders.rle import rle_decode, rle_encode

        assert rle_decode(rle_encode(b"\x07"), 1) == b"\x07"


class TestZcheckerExtras:
    def test_extra_options_forwarded(self, nyx_small):
        from repro.tools.zchecker import assess

        rows = assess(nyx_small, ["sz"], [1e-4],
                      extra_options={"sz:lossless_compressor": "bz2"})
        assert rows[0].compression_ratio > 1.0

    def test_custom_metric_set(self, nyx_small):
        from repro.tools.zchecker import assess

        rows = assess(nyx_small, ["zfp"], [1e-3],
                      metric_ids=("size", "time"))
        assert rows[0].psnr is None  # error_stat not requested
        assert rows[0].compression_ratio > 1.0


class TestMetaBaseValidation:
    def test_check_options_forwards_to_inner(self, library):
        t = library.get_compressor("transpose")
        t.set_options({"transpose:compressor": "zfp"})
        assert t.check_options({"zfp:accuracy": -5.0}) != 0
        assert t.check_options({"zfp:accuracy": 1e-3}) == 0

    def test_set_inner_through_option(self, library):
        t = library.get_compressor("transpose")
        assert t.set_options({"transpose:compressor": "mgard"}) == 0
        assert t.get_options().get("transpose:compressor") == "mgard"
        assert "mgard:tolerance" in t.get_options()

    def test_unknown_inner_id_reports_error(self, library):
        t = library.get_compressor("transpose")
        rc = t.set_options({"transpose:compressor": "not-a-plugin"})
        assert rc != 0


class TestSzNormMode:
    def test_norm_bound_scales_with_size(self, smooth3d):
        from repro.native.sz import NORM, sz_params
        from repro.native.sz.core import effective_abs_bound

        params = sz_params(errorBoundMode=NORM, normErrBound=1.0)
        small = effective_abs_bound(smooth3d[:2, :2, :2], params)
        large = effective_abs_bound(smooth3d, params)
        assert large < small  # more elements -> tighter per-point bound


class TestExternalWorkerErrors:
    def test_unknown_compressor_rc(self, tmp_path):
        import subprocess
        import sys

        np.zeros(4).tofile(tmp_path / "in.bin")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.tools.external_worker",
             "--action", "compress", "--compressor", "not-a-plugin",
             "--input", str(tmp_path / "in.bin"),
             "--output", str(tmp_path / "out.bin"),
             "--dtype", "float64", "--dims", "4"],
            capture_output=True, text=True)
        assert proc.returncode == 2

    def test_bad_options_rc(self, tmp_path):
        import subprocess
        import sys

        np.zeros(4).tofile(tmp_path / "in.bin")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.tools.external_worker",
             "--action", "compress", "--compressor", "sz",
             "--config", '{"sz:error_bound_mode_str": "bogus"}',
             "--input", str(tmp_path / "in.bin"),
             "--output", str(tmp_path / "out.bin"),
             "--dtype", "float64", "--dims", "4"],
            capture_output=True, text=True)
        assert proc.returncode == 3
