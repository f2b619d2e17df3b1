"""``chunking``'s cuts: runs of whole leading-axis slabs.

:func:`repro.meta.parallel._slabs` fixes the geometry: every row in
exactly one chunk, at least 4 rows per chunk where the array has them,
and 1-D cuts equal to ``range(0, n, chunk_size)`` (so ``CHK1`` streams
stay byte-identical).  The container decoder derives the same cuts from
its header and rejects a forged one before it allocates the output.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from repro import PressioData
from repro.core import DType
from repro.core.status import CorruptStreamError
from repro.encoders.headers import read_header, write_header
from repro.meta.parallel import _slabs

SHAPES = [(128, 128, 128), (50, 250, 250), (24, 24, 24), (26, 24, 24),
          (30, 24, 24), (9, 10), (7, 10), (5, 3, 2), (4, 1000),
          (3, 64, 64), (2, 64, 64), (1, 64, 64), (1000, 1), (0, 5),
          (5, 0)]
CHUNK_SIZES = [1, 3, 64, 576, 1000, 4096, 65536, 1 << 40]


def _cuts(dims, chunk_size):
    return list(_slabs(dims, chunk_size))


class TestGeometry:
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    @pytest.mark.parametrize("dims", SHAPES, ids=str)
    def test_cuts_cover_every_row_exactly_once(self, dims, chunk_size):
        cuts = _cuts(dims, chunk_size)
        assert cuts[0][0] == 0
        assert cuts[-1][1] == dims[0]
        assert all(a[1] == b[0] for a, b in zip(cuts, cuts[1:]))
        if dims[0]:
            assert all(stop > start for start, stop in cuts)

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    @pytest.mark.parametrize("dims", SHAPES, ids=str)
    def test_at_least_four_rows_where_the_array_has_them(self, dims,
                                                         chunk_size):
        cuts = _cuts(dims, chunk_size)
        if dims[0] >= 4:
            assert all(stop - start >= 4 for start, stop in cuts)
        else:
            assert cuts == [(0, dims[0])]

    @pytest.mark.parametrize("n", [0, 1, 5, 1000, 1025, 65536, 70000])
    @pytest.mark.parametrize("chunk_size", [1, 3, 256, 1024, 65536])
    def test_1d_cuts_are_the_flat_ranges(self, n, chunk_size):
        expected = [(i, min(i + chunk_size, n))
                    for i in range(0, n, chunk_size)] or [(0, 0)]
        assert _cuts((n,), chunk_size) == expected

    def test_rows_follow_the_element_target(self):
        # nyx 128^3 at the default 65 536: 4 rows of 128 x 128
        assert _cuts((128, 128, 128), 1 << 16)[:2] == [(0, 4), (4, 8)]
        # 576-element rows at 4096: 7.1 rounds to 7
        assert _cuts((26, 24, 24), 4096) == [(0, 7), (7, 14), (14, 21),
                                             (21, 26)]

    def test_short_tail_merges_into_the_chunk_before(self):
        # CLOUD 50 x 250 x 250: 12 runs of 4 rows leave 2, merged
        cuts = _cuts((50, 250, 250), 1 << 16)
        assert len(cuts) == 12 and cuts[-1] == (44, 50)
        assert _cuts((30, 24, 24), 4096)[-1] == (21, 30)

    def test_edge_inputs(self):
        assert _cuts((), 64) == [(0, 0)]                # 0-d: no elements
        assert _cuts((0, 5), 64) == [(0, 0)]            # empty
        assert _cuts((5, 0), 64) == [(0, 5)]            # empty rows
        assert _cuts((1, 50, 50), 64) == [(0, 1)]
        assert _cuts((2, 50, 50), 64) == [(0, 2)]
        # a chunk_size smaller than one row still takes 4 whole rows
        assert _cuts((12, 50, 50), 1) == [(0, 4), (4, 8), (8, 12)]


def _field(shape=(24, 24, 24)):
    axes = np.meshgrid(*(np.linspace(0.0, 3.0, n) for n in shape),
                       indexing="ij")
    return np.sin(sum(axes)) + 0.1 * axes[0] ** 2


def _chunking(library, inner, bound, chunk_size=2048):
    comp = library.get_compressor("chunking")
    assert comp.set_options({"chunking:compressor": inner,
                             "chunking:chunk_size": chunk_size,
                             "pressio:abs": bound}) == 0, comp.error_msg()
    return comp


INPUTS = {
    "fortran": lambda f: np.asfortranarray(f),
    "strided": lambda f: np.concatenate([f, f], axis=1)[:, ::2],
    "big-endian": lambda f: f.astype(">f8"),
    "int32": lambda f: np.round(f * 1000).astype(np.int32),
}


class TestRoundTrips:
    @pytest.mark.parametrize("kind", INPUTS)
    @pytest.mark.parametrize("inner", ["sz", "zfp", "mgard"])
    def test_input_classes_within_bound(self, library, inner, kind):
        arr = INPUTS[kind](_field((20, 16, 18)))
        bound = 0.5 if kind == "int32" else 1e-3
        comp = _chunking(library, inner, bound)
        data = PressioData.from_numpy(arr, copy=False)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # zfp pads 18 to 20
            stream = comp.compress(data)
        assert stream.to_bytes()[:4] == b"CHK2"
        out = comp.decompress(
            stream, PressioData.empty(data.dtype, data.dims)).to_numpy()
        assert out.shape == arr.shape
        err = np.max(np.abs(out.astype(np.float64)
                            - arr.astype(np.float64)))
        assert err <= bound * (1 + 1e-12)

    @pytest.mark.parametrize("inner", ["sz", "zfp", "mgard"])
    def test_each_chunk_keeps_its_dims(self, library, inner):
        from repro.trace import tracing

        arr = _field((30, 24, 24))
        comp = _chunking(library, inner, 1e-3, chunk_size=4096)
        with tracing() as trace:
            comp.compress(PressioData.from_numpy(arr))
        dims = [s.attrs["dims"] for s in trace.spans()
                if s.name == "compress" and s.attrs.get("plugin") == inner]
        assert dims == [[7, 24, 24]] * 3 + [[9, 24, 24]]


def _forge(stream, magic, dims=None, ints=None, table=None):
    """``stream`` with its header fields (or length table) replaced."""
    dtype, got_dims, _d, got_ints, pos = read_header(stream, magic)
    header = write_header(magic, dtype,
                          got_dims if dims is None else dims,
                          ints=got_ints if ints is None else ints)
    body = stream[pos:]
    if table is not None:
        body = table + body[len(table):]
    return header + body


FORGERIES = {
    "n_chunks=2**40": lambda s, m, d, n, c: _forge(s, m, ints=(1 << 40, c)),
    "n_chunks+1": lambda s, m, d, n, c: _forge(s, m, ints=(n + 1, c)),
    "n_chunks-1": lambda s, m, d, n, c: _forge(s, m, ints=(n - 1, c)),
    "chunk_size=0": lambda s, m, d, n, c: _forge(s, m, ints=(n, 0)),
    "chunk_size=-5": lambda s, m, d, n, c: _forge(s, m, ints=(n, -5)),
    "chunk_size=2**40": lambda s, m, d, n, c: _forge(s, m,
                                                     ints=(n, 1 << 40)),
    "dims=2**34": lambda s, m, d, n, c: _forge(s, m,
                                               dims=(1 << 34,) + d[1:]),
    "table": lambda s, m, d, n, c: _forge(
        s, m, table=(1 << 20).to_bytes(8, "little")),
}


class TestForgedContainers:
    @pytest.mark.parametrize("template_dims", [True, False],
                             ids=["template-dims", "no-template-dims"])
    @pytest.mark.parametrize("forgery", FORGERIES)
    @pytest.mark.parametrize("shape,magic", [((24 ** 3,), b"CHK1"),
                                             ((24, 24, 24), b"CHK2")],
                             ids=["CHK1", "CHK2"])
    def test_fails_typed_with_a_small_peak(self, library, shape, magic,
                                           forgery, template_dims):
        arr = _field((24, 24, 24)).reshape(shape)
        comp = _chunking(library, "sz", 1e-3)
        stream = comp.compress(PressioData.from_numpy(arr)).to_bytes()
        assert stream[:4] == magic
        _, dims, _, (n_chunks, chunk_size), _ = read_header(stream, magic)
        assert n_chunks > 1
        forged = FORGERIES[forgery](stream, magic, dims, n_chunks,
                                    chunk_size)
        template = PressioData.empty(DType.DOUBLE,
                                     shape if template_dims else ())
        data = PressioData.from_bytes(forged)
        tracemalloc.start()
        try:
            with pytest.raises(CorruptStreamError):
                comp.decompress(data, template)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
