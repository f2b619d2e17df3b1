"""Edge-case coverage across plugin families."""

import numpy as np
import pytest

from repro.core import DType, PressioData, PressioError
from tests.conftest import roundtrip


class TestIntegerData:
    def test_zfp_int32_roundtrip(self, library):
        rng = np.random.default_rng(0)
        arr = rng.integers(-500, 500, size=(16, 16)).astype(np.int32)
        zfp = library.get_compressor("zfp")
        zfp.set_options({"zfp:accuracy": 0.4})  # < 0.5: ints exact
        out = roundtrip(zfp, arr)
        assert np.array_equal(out.astype(np.int64), arr.astype(np.int64))

    def test_zfp_int64_reversible(self, library):
        arr = np.arange(-32, 32, dtype=np.int64).reshape(8, 8)
        zfp = library.get_compressor("zfp")
        zfp.set_options({"zfp:mode_str": "reversible"})
        assert np.array_equal(roundtrip(zfp, arr), arr)

    def test_sz_uint16_roundtrip(self, library):
        rng = np.random.default_rng(1)
        arr = rng.integers(0, 1000, size=(12, 12)).astype(np.uint16)
        sz = library.get_compressor("sz")
        sz.set_options({"pressio:abs": 0.4})
        out = roundtrip(sz, arr)
        assert np.array_equal(out, arr)

    def test_mgard_integer_input(self, library):
        arr = (np.arange(64.0).reshape(8, 8) * 3).astype(np.int32)
        mgard = library.get_compressor("mgard")
        mgard.set_options({"mgard:tolerance": 0.4})
        out = roundtrip(mgard, arr)
        assert np.array_equal(out, arr)


class TestDegenerateInputs:
    @pytest.mark.parametrize("cid", ["sz", "zfp", "zlib", "noop"])
    def test_single_element(self, library, cid):
        arr = np.array([3.25])
        comp = library.get_compressor(cid)
        comp.set_options({"pressio:abs": 1e-6})
        out = roundtrip(comp, arr)
        assert abs(float(out[0]) - 3.25) <= 1e-6

    @pytest.mark.parametrize("cid", ["sz", "zfp"])
    def test_constant_field(self, library, cid):
        arr = np.full((10, 10), 7.5)
        comp = library.get_compressor(cid)
        comp.set_options({"pressio:abs": 1e-6})
        out = roundtrip(comp, arr)
        assert np.abs(out - arr).max() <= 1e-6
        # a constant field must compress extremely well
        compressed = comp.compress(PressioData.from_numpy(arr))
        assert compressed.size_in_bytes < arr.nbytes / 4

    def test_sz_huge_values_tiny_bound_raises_cleanly(self, library):
        # non-constant huge range: the quantizer would need > 2^56 bins
        arr = np.linspace(0.0, 1e30, 16)
        sz = library.get_compressor("sz")
        sz.set_options({"pressio:abs": 1e-12})
        with pytest.raises(PressioError, match="rejected"):
            sz.compress(PressioData.from_numpy(arr))
        assert sz.error_code() != 0

    def test_sz_constant_huge_values_fine(self, library):
        """A constant field demeans to zero: no overflow regardless of
        the bound."""
        arr = np.full(16, 1e30)
        sz = library.get_compressor("sz")
        sz.set_options({"pressio:abs": 1e-12})
        out = roundtrip(sz, arr)
        assert np.allclose(out, 1e30, rtol=1e-12)

    def test_negative_values_pw_rel(self, library):
        arr = -np.exp(np.linspace(0, 5, 200))
        sz = library.get_compressor("sz")
        sz.set_options({"sz:error_bound_mode_str": "pw_rel",
                        "sz:pw_rel_err_bound": 1e-3})
        out = roundtrip(sz, arr)
        assert np.all(out < 0)
        assert np.abs((out - arr) / arr).max() <= 1e-3 * (1 + 1e-6)


class TestMetricsHookPlumbing:
    def test_get_set_option_hooks_reach_metrics(self, library):
        """begin_get_options / begin_set_options fire on the composite."""
        from repro.core.metrics import PressioMetrics
        from repro.metrics.composite import CompositeMetrics

        events = []

        class Spy(PressioMetrics):
            plugin_id = "spy"

            def begin_get_options(self):
                events.append("get")

            def begin_set_options(self, options):
                events.append("set")

        sz = library.get_compressor("sz")
        sz.set_metrics(CompositeMetrics([Spy()]))
        sz.get_options()
        sz.set_options({"pressio:abs": 1e-3})
        assert events == ["get", "set"]

    def test_new_metrics_alias(self, library):
        assert library.new_metrics(["size"]) is not None

    def test_metrics_clone_carries_options(self, library):
        m = library.get_metric("spatial_error")
        m.set_options({"spatial_error:threshold": 0.5})
        dup = m.clone()
        assert dup.get_options().get("spatial_error:threshold") == 0.5


class TestManyDependentWithoutForwarding:
    def test_plain_sequence(self, library, smooth3d):
        m = library.get_compressor("many_dependent")
        m.set_options({"many_dependent:compressor": "zfp",
                       "zfp:accuracy": 1e-4})
        streams = m.compress_many(
            [PressioData.from_numpy(smooth3d) for _ in range(3)])
        assert len(streams) == 3
        assert all(s.size_in_bytes > 0 for s in streams)


class TestCapiMany:
    def test_compress_many_through_capi(self, library, smooth3d):
        from repro import capi

        lib = capi.pressio_instance()
        comp = capi.pressio_get_compressor(lib, "zfp")
        opts = capi.pressio_options_new()
        capi.pressio_options_set_double(opts, "zfp:accuracy", 1e-3)
        capi.pressio_compressor_set_options(comp, opts)
        inputs = [capi.pressio_data_new_copy(
            capi.pressio_double_dtype, smooth3d, 3, list(smooth3d.shape))
            for _ in range(3)]
        streams = capi.pressio_compressor_compress_many(comp, inputs)
        outputs = [capi.pressio_data_new_empty(
            capi.pressio_double_dtype, 3, list(smooth3d.shape))
            for _ in streams]
        results = capi.pressio_compressor_decompress_many(comp, streams,
                                                          outputs)
        for r in results:
            arr = np.asarray(capi.pressio_data_ptr(r))
            assert np.abs(arr - smooth3d).max() <= 1e-3 * (1 + 1e-9)

    def test_capi_clone(self, library):
        from repro import capi

        lib = capi.pressio_instance()
        comp = capi.pressio_get_compressor(lib, "zfp")
        dup = capi.pressio_compressor_clone(comp)
        assert dup is not comp
        assert capi.pressio_compressor_version(dup) == \
            capi.pressio_compressor_version(comp)


class TestDomainsMore:
    def test_mmap_domain_flush(self, tmp_path):
        from repro.core.domain import MmapDomain

        path = tmp_path / "f.bin"
        np.zeros(16).tofile(path)
        domain, view = MmapDomain.map_file(path, writable=True)
        arr = np.frombuffer(view, dtype=np.float64)
        domain.flush()
        del arr, view
        domain.release()
