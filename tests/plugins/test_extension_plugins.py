"""Tests for the extension plugins: tthresh, sz variants, sparse,
ftk metrics, and petsc IO."""

import tracemalloc
import zlib

import numpy as np
import pytest

from repro.core import CorruptStreamError, DType, PressioData
from repro.encoders.headers import read_header, write_header
from repro.core.configurable import ThreadSafety
from repro.native import tthresh as native_tthresh
from tests.conftest import roundtrip


def rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm((a - b).ravel())
                 / max(np.linalg.norm(b.ravel()), 1e-300))


class TestTthreshNative:
    @pytest.mark.parametrize("tol", [1e-1, 1e-2, 1e-3, 1e-4])
    def test_relative_l2_bound(self, smooth3d, tol):
        out = native_tthresh.decompress(native_tthresh.compress(smooth3d,
                                                                tol))
        assert rel_l2(out, smooth3d) <= tol

    def test_2d_and_1d(self):
        rng = np.random.default_rng(0)
        for shape in [(400,), (32, 48)]:
            arr = rng.standard_normal(shape).cumsum(axis=-1)
            out = native_tthresh.decompress(
                native_tthresh.compress(arr, 1e-3))
            assert rel_l2(out, arr) <= 1e-3

    def test_low_rank_data_compresses_extremely(self):
        """Rank-2 data must collapse to a tiny factorization."""
        u = np.linspace(0, 1, 64)[:, None]
        v = np.sin(np.linspace(0, 7, 64))[None, :]
        arr = u @ v + 0.5 * (u ** 2) @ (v ** 2)
        stream = native_tthresh.compress(arr, 1e-6)
        assert arr.nbytes / len(stream) > 10

    def test_looser_bound_better_ratio(self, smooth3d):
        tight = len(native_tthresh.compress(smooth3d, 1e-5))
        loose = len(native_tthresh.compress(smooth3d, 1e-1))
        assert loose < tight

    def test_zero_field(self):
        arr = np.zeros((8, 8, 8))
        out = native_tthresh.decompress(native_tthresh.compress(arr, 1e-3))
        assert np.allclose(out, 0.0)

    def test_bad_tolerance(self, smooth3d):
        with pytest.raises(ValueError):
            native_tthresh.compress(smooth3d, 0.0)

    def test_5d_rejected(self):
        with pytest.raises(Exception):
            native_tthresh.compress(np.zeros((2,) * 5), 1e-3)


class TestTthreshPlugin:
    def test_roundtrip_through_plugin(self, library, smooth3d):
        comp = library.get_compressor("tthresh")
        comp.set_options({"tthresh:target_value": 1e-3})
        out = roundtrip(comp, smooth3d)
        assert rel_l2(out, smooth3d) <= 1e-3

    def test_norm_advertised(self, library):
        comp = library.get_compressor("tthresh")
        assert comp.get_configuration().get("tthresh:norm") == "relative_l2"

    def test_bad_target_rejected(self, library):
        comp = library.get_compressor("tthresh")
        assert comp.set_options({"tthresh:target_value": -1.0}) != 0


class TestSZVariants:
    def test_threadsafe_reports_multiple(self, library):
        comp = library.get_compressor("sz_threadsafe")
        cfg = comp.get_configuration()
        assert cfg.get("pressio:thread_safe") == ThreadSafety.MULTIPLE
        assert cfg.get("sz:shared_instance") is False

    def test_threadsafe_same_streams_as_sz(self, library, smooth3d):
        a = library.get_compressor("sz")
        b = library.get_compressor("sz_threadsafe")
        for comp in (a, b):
            comp.set_options({"pressio:abs": 1e-4})
        data = PressioData.from_numpy(smooth3d)
        assert a.compress(data).to_bytes() == b.compress(data).to_bytes()

    def test_threadsafe_clones_are_independent(self, library):
        comp = library.get_compressor("sz_threadsafe")
        comp.set_options({"pressio:abs": 1e-3})
        dup = comp.clone()
        dup.set_options({"pressio:abs": 1e-6})
        assert comp.get_options().get("sz:abs_err_bound") == 1e-3
        assert dup.get_options().get("sz:abs_err_bound") == 1e-6

    def test_many_independent_parallelizes_threadsafe_sz(self, library,
                                                         smooth3d):
        m = library.get_compressor("many_independent")
        m.set_options({"many_independent:compressor": "sz_threadsafe",
                       "many_independent:nthreads": 4,
                       "pressio:abs": 1e-4})
        inputs = [PressioData.from_numpy(smooth3d + k) for k in range(4)]
        streams = m.compress_many(inputs)
        outs = m.decompress_many(
            streams, [PressioData.empty(DType.DOUBLE, smooth3d.shape)
                      for _ in streams])
        for k, out in enumerate(outs):
            assert np.abs(np.asarray(out.to_numpy())
                          - (smooth3d + k)).max() <= 1e-4 * (1 + 1e-9)

    def test_sz_omp_roundtrip(self, library, letkf_small):
        comp = library.get_compressor("sz_omp")
        comp.set_options({"pressio:abs": 1e-4, "sz_omp:nthreads": 4})
        out = roundtrip(comp, letkf_small)
        assert np.abs(out - letkf_small).max() <= 1e-4 * (1 + 1e-9)

    def test_sz_omp_small_input_falls_back(self, library):
        comp = library.get_compressor("sz_omp")
        comp.set_options({"pressio:abs": 0.4, "sz_omp:nthreads": 8})
        arr = np.arange(6.0).reshape(6, 1)  # fewer rows than 2*threads
        out = roundtrip(comp, arr)
        assert out.shape == (6, 1)

    def test_sz_omp_thread_counts_all_bounded(self, library, letkf_small):
        """Different slab counts give different (but all bounded)
        reconstructions — like real SZ-OMP's per-block processing."""
        for n in (1, 2, 4):
            comp = library.get_compressor("sz_omp")
            comp.set_options({"pressio:abs": 1e-4, "sz_omp:nthreads": n})
            data = PressioData.from_numpy(letkf_small)
            compressed = comp.compress(data)
            out = comp.decompress(
                compressed, PressioData.empty(DType.DOUBLE,
                                              letkf_small.shape))
            err = np.abs(np.asarray(out.to_numpy()) - letkf_small).max()
            assert err <= 1e-4 * (1 + 1e-9), n


class TestSparse:
    def test_roundtrip_with_fill(self, library):
        rng = np.random.default_rng(1)
        arr = np.zeros((40, 40))
        mask = rng.random((40, 40)) < 0.1
        arr[mask] = rng.standard_normal(int(mask.sum())) + 5.0
        comp = library.get_compressor("sparse")
        comp.set_options({"sparse:compressor": "sz", "pressio:abs": 1e-6})
        out = roundtrip(comp, arr)
        assert np.array_equal(out == 0.0, arr == 0.0)  # zeros exact
        assert np.abs(out - arr).max() <= 1e-6 * (1 + 1e-9)

    def test_beats_dense_on_sparse_data(self, library):
        rng = np.random.default_rng(2)
        arr = np.zeros(100_000)
        idx = rng.choice(arr.size, size=2000, replace=False)
        arr[idx] = rng.standard_normal(2000)
        dense = library.get_compressor("sz")
        dense.set_options({"pressio:abs": 1e-8})
        sparse = library.get_compressor("sparse")
        sparse.set_options({"sparse:compressor": "sz",
                            "pressio:abs": 1e-8})
        data = PressioData.from_numpy(arr)
        assert sparse.compress(data).size_in_bytes < \
            dense.compress(data).size_in_bytes

    def test_custom_fill_value(self, library):
        arr = np.full((20, 20), -999.0)  # missing-data sentinel
        arr[5:10, 5:10] = 1.5
        comp = library.get_compressor("sparse")
        comp.set_options({"sparse:fill_value": -999.0,
                          "sparse:compressor": "zlib"})
        out = roundtrip(comp, arr)
        assert np.array_equal(out, arr)

    def test_all_fill(self, library):
        arr = np.zeros((10, 10))
        comp = library.get_compressor("sparse")
        out = roundtrip(comp, arr)
        assert np.array_equal(out, arr)

    def test_no_fill(self, library):
        arr = np.arange(1.0, 101.0).reshape(10, 10)
        comp = library.get_compressor("sparse")
        comp.set_options({"sparse:compressor": "zlib"})
        out = roundtrip(comp, arr)
        assert np.array_equal(out, arr)

    @staticmethod
    def _with_bitmap(stream: bytes, bitmap: bytes) -> bytes:
        """``stream`` with its zlib bitmap replaced by ``bitmap``."""
        dtype, dims, doubles, ints, pos = read_header(stream, b"SPR1")
        n_occupied, bitmap_len = ints
        header = write_header(b"SPR1", dtype, dims, doubles=doubles,
                              ints=(n_occupied, len(bitmap)))
        return header + bitmap + stream[pos + bitmap_len:]

    @pytest.mark.parametrize("inflated", [64 << 20, 63],
                             ids=["bomb", "short"])
    def test_bitmap_of_the_wrong_size_fails_typed_with_a_small_peak(
            self, library, inflated):
        # 8x8x8 with only the last 8 values at the fill value: the true
        # bitmap is 63 bytes of ones and a zero byte.  Neither a 64 MiB
        # bomb of ones nor the 63 bytes alone (whose occupancy count
        # matches) may decode.
        arr = np.arange(1.0, 513.0).reshape(8, 8, 8)
        arr[-1, -1, :] = 0.0
        comp = library.get_compressor("sparse")
        comp.set_options({"sparse:compressor": "zlib"})
        data = PressioData.from_numpy(arr)
        stream = comp.compress(data).to_bytes()
        forged = self._with_bitmap(
            stream, zlib.compress(b"\xff" * inflated, 9))
        template = PressioData.empty(data.dtype, data.dims)
        tracemalloc.start()
        try:
            with pytest.raises(CorruptStreamError):
                comp.decompress(PressioData.from_bytes(forged), template)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("forged_dims", [(1 << 34, 8, 8), (512,)],
                             ids=["2**34", "reshaped"])
    def test_forged_dims_fail_typed_with_a_small_peak(self, library,
                                                      forged_dims):
        # an 8^3 stream whose dims claim 2**34 rows, or the same 512
        # elements in another shape: the template's dims reject both
        # before the bitmap or the output is sized from them
        arr = np.arange(1.0, 513.0).reshape(8, 8, 8)
        comp = library.get_compressor("sparse")
        comp.set_options({"sparse:compressor": "zlib"})
        data = PressioData.from_numpy(arr)
        stream = comp.compress(data).to_bytes()
        dtype, dims, doubles, ints, pos = read_header(stream, b"SPR1")
        forged = write_header(b"SPR1", dtype, forged_dims,
                              doubles=doubles, ints=ints) + stream[pos:]
        template = PressioData.empty(data.dtype, data.dims)
        tracemalloc.start()
        try:
            with pytest.raises(CorruptStreamError):
                comp.decompress(PressioData.from_bytes(forged), template)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestFtkMetrics:
    def test_extrema_detection(self):
        from repro.metrics.features import local_extrema

        arr = np.zeros((9, 9))
        arr[4, 4] = 5.0   # a maximum
        arr[2, 6] = -3.0  # a minimum
        maxima, minima = local_extrema(arr)
        assert maxima[4, 4] and maxima.sum() == 1
        assert minima[2, 6] and minima.sum() == 1

    def test_boundary_excluded(self):
        from repro.metrics.features import local_extrema

        arr = np.zeros((5, 5))
        arr[0, 0] = 99.0
        maxima, _ = local_extrema(arr)
        assert not maxima[0, 0]

    def test_lossless_preserves_all_features(self, library, smooth3d):
        comp = library.get_compressor("fpzip")
        metrics = library.get_metric("ftk")
        comp.set_metrics(metrics)
        data = PressioData.from_numpy(smooth3d)
        comp.decompress(comp.compress(data),
                        PressioData.empty(data.dtype, data.dims))
        results = comp.get_metrics_results()
        assert results.get("ftk:preserved_fraction") == 1.0
        assert results.get("ftk:spurious") == 0

    def test_heavy_loss_destroys_features(self, library, smooth3d):
        comp = library.get_compressor("sz")
        comp.set_options({"pressio:abs": 1.0})  # enormous bound
        metrics = library.get_metric("ftk")
        comp.set_metrics(metrics)
        data = PressioData.from_numpy(smooth3d)
        comp.decompress(comp.compress(data),
                        PressioData.empty(data.dtype, data.dims))
        results = comp.get_metrics_results()
        assert results.get("ftk:preserved_fraction") < 0.5

    def test_tight_bound_preserves_most(self, library, smooth3d):
        comp = library.get_compressor("sz")
        comp.set_options({"pressio:abs": 1e-7})
        metrics = library.get_metric("ftk")
        comp.set_metrics(metrics)
        data = PressioData.from_numpy(smooth3d)
        comp.decompress(comp.compress(data),
                        PressioData.empty(data.dtype, data.dims))
        assert comp.get_metrics_results().get(
            "ftk:preserved_fraction") > 0.9

    def test_match_radius_option(self, library):
        m = library.get_metric("ftk")
        assert m.set_options({"ftk:match_radius": 2}) == 0
        assert m.set_options({"ftk:match_radius": -1}) != 0


class TestPetscIO:
    def test_roundtrip(self, library, tmp_path):
        arr = np.linspace(-3, 3, 500)
        io = library.get_io("petsc")
        path = str(tmp_path / "vec.petsc")
        io.set_options({"io:path": path})
        io.write(PressioData.from_numpy(arr))
        out = io.read()
        assert np.array_equal(np.asarray(out.to_numpy()).reshape(-1), arr)

    def test_big_endian_layout(self, library, tmp_path):
        import struct

        io = library.get_io("petsc")
        path = str(tmp_path / "v.petsc")
        io.set_options({"io:path": path})
        io.write(PressioData.from_numpy(np.array([1.0, 2.0])))
        raw = open(path, "rb").read()
        classid, n = struct.unpack(">ii", raw[:8])
        assert classid == 1211214 and n == 2
        assert struct.unpack(">d", raw[8:16])[0] == 1.0

    def test_template_reshapes(self, library, tmp_path):
        arr = np.arange(24.0)
        io = library.get_io("petsc")
        io.set_options({"io:path": str(tmp_path / "w.petsc")})
        io.write(PressioData.from_numpy(arr))
        out = io.read(PressioData.empty(DType.DOUBLE, (4, 6)))
        assert out.dims == (4, 6)

    def test_wrong_classid_rejected(self, library, tmp_path):
        import struct

        path = tmp_path / "bad.petsc"
        path.write_bytes(struct.pack(">ii", 1234, 0))
        io = library.get_io("petsc")
        io.set_options({"io:path": str(path)})
        with pytest.raises(Exception, match="class id"):
            io.read()

    def test_truncated_rejected(self, library, tmp_path):
        import struct

        path = tmp_path / "short.petsc"
        path.write_bytes(struct.pack(">ii", 1211214, 100))
        io = library.get_io("petsc")
        io.set_options({"io:path": str(path)})
        with pytest.raises(Exception, match="holds"):
            io.read()
