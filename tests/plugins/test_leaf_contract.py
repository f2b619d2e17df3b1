"""The leaf-plugin contract, stated once per kind of plugin.

* Every plugin whose stream records its own dims decodes only against a
  template with those dims (or none), and fails typed otherwise.
* The framed byte codecs (``lossless`` ids, ``bit_grooming``,
  ``digit_rounding``) size their payload from the dims before decoding,
  so a small forged stream cannot balloon.
* ``sz_omp``'s ``SZMP`` container checks its slab count, length table
  and cuts before it allocates the output, and decodes to the
  template's dtype as plain ``sz`` does; so does fpzip.
* ``bit_grooming``/``digit_rounding`` streams decode with the backend
  they were written with.
* zfp's padding warning names the caller's line on every path.
"""

import tracemalloc
import zlib

import numpy as np
import pytest

from repro import PressioData
from repro.compressors import LOSSLESS_PLUGIN_IDS
from repro.core import DType
from repro.core.status import CorruptStreamError, PressioError
from repro.encoders.headers import read_header, write_header
from repro.encoders.huffman import HuffmanCodec
from repro.encoders.varint import varint_encode
from repro.trace import tracing

#: plugin id -> options; every leaf and every meta plugin whose stream
#: dims are the dims it decodes to
SELF_DESCRIBED = {
    "sz": {"pressio:abs": 1e-3},
    "sz_threadsafe": {"pressio:abs": 1e-3},
    "sz_omp": {"pressio:abs": 1e-3},
    "zfp": {"pressio:abs": 1e-3},
    "mgard": {"pressio:abs": 1e-3},
    "fpzip": {},
    "tthresh": {},
    "bit_grooming": {},
    "digit_rounding": {},
    "noop": {},
    "transpose": {},
    "resize": {"resize:new_dims": ["4", "4"]},
    "delta_encoding": {},
    "linear_quantizer": {},
    **{codec: {} for codec in LOSSLESS_PLUGIN_IDS},
}


def _peak(fn) -> int:
    """tracemalloc peak of ``fn()``, which must raise CorruptStreamError."""
    tracemalloc.start()
    try:
        with pytest.raises(CorruptStreamError):
            fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("plugin", sorted(SELF_DESCRIBED))
def test_a_template_with_other_dims_fails_typed(library, plugin):
    comp = library.get_compressor(plugin)
    assert comp.set_options(SELF_DESCRIBED[plugin]) == 0, comp.error_msg()
    data = PressioData.from_numpy(np.linspace(0.0, 1.0, 16))
    stream = comp.compress(data)
    out = comp.decompress(stream, PressioData.empty(DType.DOUBLE, (16,)))
    assert out.dims == (16,)
    with pytest.raises(PressioError):
        comp.decompress(stream, PressioData.empty(DType.DOUBLE, (13,)))


def _huffman_bomb(count: int) -> bytes:
    """A legacy HUF1 stream declaring ``count`` one-bit symbols."""
    table = HuffmanCodec({0: 1}).serialize_table()
    return (b"HUF1" + varint_encode(count) + varint_encode(count)
            + varint_encode(len(table)) + table + b"\x00")


#: codec -> a small payload declaring (or expanding to) 64 MiB
BOMBS = {
    "zlib": lambda: zlib.compress(bytes(1 << 26), 6),
    "rle": lambda: b"RLE1" + varint_encode(1) + varint_encode(1 << 26)
    + b"\x00",
    # declares its total
    "pressio-lz": lambda: b"PLZ1" + varint_encode(1 << 26)
    + varint_encode(1) + b"\x00" + varint_encode((1 << 26) - 1)
    + varint_encode(1) + varint_encode(0) + varint_encode(0),
    # declares the template's 128 bytes, then one match writes past them
    "pressio-lz-match": lambda: b"PLZ1" + varint_encode(128)
    + varint_encode(1) + b"\x00" + varint_encode(1 << 26)
    + varint_encode(1) + varint_encode(0) + varint_encode(0),
    "huffman-bytes": lambda: _huffman_bomb(1 << 23),
}


@pytest.mark.parametrize("template_dims,header_dims", [
    ((16,), (16,)), ((), (16,)), ((16,), (1 << 23,))],
    ids=["template-dims", "no-template-dims", "forged-header-dims"])
@pytest.mark.parametrize("bomb", sorted(BOMBS))
def test_codec_bomb_fails_typed_with_a_small_peak(library, bomb,
                                                  template_dims,
                                                  header_dims):
    comp = library.get_compressor(bomb.removesuffix("-match"))
    stream = (write_header(b"LSL1", DType.DOUBLE, header_dims)
              + BOMBS[bomb]())
    data = PressioData.from_bytes(stream)
    template = PressioData.empty(DType.DOUBLE, template_dims)
    assert _peak(lambda: comp.decompress(data, template)) < 1 << 20


def _szmp_stream(library):
    comp = library.get_compressor("sz_omp")
    assert comp.set_options({"pressio:abs": 1e-3}) == 0
    # 2 MiB of doubles in a few hundred bytes: a decoder that allocates
    # before it checks shows in the peak
    arr = np.zeros((4096, 64))
    stream = comp.compress(PressioData.from_numpy(arr)).to_bytes()
    assert stream[:4] == b"SZMP"
    return comp, arr.shape, stream


def _forge(stream, dims=None, ints=None, table=None, tail=b""):
    dtype, got_dims, _d, got_ints, pos = read_header(stream, b"SZMP")
    body = stream[pos:]
    if table is not None:
        body = table + body[len(table):]
    return write_header(b"SZMP", dtype, got_dims if dims is None else dims,
                        ints=got_ints if ints is None else ints) + body + tail


SZMP_FORGERIES = {
    "n_slabs=2**40": lambda s, d, n: _forge(s, ints=(1 << 40,)),
    "n_slabs=0": lambda s, d, n: _forge(s, ints=(0,)),
    "n_slabs+1": lambda s, d, n: _forge(s, ints=(n + 1,)),
    "table": lambda s, d, n: _forge(
        s, table=(1 << 20).to_bytes(8, "little")),
    "trailing-byte": lambda s, d, n: _forge(s, tail=b"\x00"),
    "dims=2**34": lambda s, d, n: _forge(s, dims=(1 << 34,) + d[1:]),
    "rows+1": lambda s, d, n: _forge(s, dims=(d[0] + 1,) + d[1:]),
}


@pytest.mark.parametrize("template_dims", [True, False],
                         ids=["template-dims", "no-template-dims"])
@pytest.mark.parametrize("forgery", sorted(SZMP_FORGERIES))
def test_forged_szmp_fails_typed_with_a_small_peak(library, forgery,
                                                   template_dims):
    comp, shape, stream = _szmp_stream(library)
    _, dims, _, (n_slabs,), _ = read_header(stream, b"SZMP")
    assert n_slabs > 1
    forged = SZMP_FORGERIES[forgery](stream, dims, n_slabs)
    data = PressioData.from_bytes(forged)
    template = PressioData.empty(DType.DOUBLE,
                                 shape if template_dims else ())
    assert _peak(lambda: comp.decompress(data, template)) < 1 << 20


def test_szmp_uneven_cuts_decode_with_and_without_template_dims(library):
    comp = library.get_compressor("sz_omp")
    assert comp.set_options({"pressio:abs": 1e-3}) == 0
    rng = np.random.default_rng(3)
    arr = np.cumsum(rng.standard_normal((37, 9)), axis=0)
    stream = comp.compress(PressioData.from_numpy(arr))
    assert stream.to_bytes()[:4] == b"SZMP"
    for dims in (arr.shape, ()):
        out = comp.decompress(stream, PressioData.empty(DType.DOUBLE, dims))
        assert np.max(np.abs(out.to_numpy() - arr)) <= 1e-3


@pytest.mark.parametrize("plugin", ["sz", "sz_omp"])
def test_sz_decodes_to_the_template_dtype(library, plugin):
    comp = library.get_compressor(plugin)
    assert comp.set_options({"pressio:abs": 1e-3}) == 0
    rng = np.random.default_rng(5)
    arr = np.cumsum(rng.standard_normal((64, 32, 32)), axis=0)
    stream = comp.compress(PressioData.from_numpy(arr))
    assert (stream.to_bytes()[:4] == b"SZMP") == (plugin == "sz_omp")
    out = comp.decompress(stream, PressioData.empty(DType.FLOAT, arr.shape))
    assert out.dtype == DType.FLOAT
    assert out.to_numpy().dtype == np.float32
    assert np.max(np.abs(out.to_numpy() - arr)) <= 1e-3 + 1e-5


@pytest.mark.parametrize("layout", ["backend-in-header", "kept-bits-only"])
@pytest.mark.parametrize("plugin", ["bit_grooming", "digit_rounding"])
def test_rnd1_decodes_with_the_backend_it_was_written_with(library, plugin,
                                                           layout):
    writer = library.get_compressor(plugin)
    assert writer.set_options({f"{plugin}:backend": "bz2"}) == 0
    arr = np.linspace(0.0, 1.0, 256)
    stream = writer.compress(PressioData.from_numpy(arr)).to_bytes()
    dtype, dims, _d, ints, pos = read_header(stream, b"RND1")
    assert len(ints) == 2
    template = PressioData.empty(DType.DOUBLE, arr.shape)
    reader = library.get_compressor(plugin)  # default backend: zlib
    if layout == "kept-bits-only":
        # a stream written before the header named its backend decodes
        # with the instance's backend
        stream = write_header(b"RND1", dtype, dims, ints=ints[:1]) + \
            stream[pos:]
        with pytest.raises(CorruptStreamError):
            reader.decompress(PressioData.from_bytes(stream), template)
        assert reader.set_options({f"{plugin}:backend": "bz2"}) == 0
    out = reader.decompress(PressioData.from_bytes(stream), template)
    assert np.max(np.abs(out.to_numpy() - arr) / np.maximum(arr, 1e-30)) \
        < 1e-3


def test_rnd1_unknown_backend_id_fails_typed(library):
    comp = library.get_compressor("bit_grooming")
    stream = comp.compress(PressioData.from_numpy(np.ones(8))).to_bytes()
    dtype, dims, _d, ints, pos = read_header(stream, b"RND1")
    forged = write_header(b"RND1", dtype, dims, ints=(ints[0], 99))
    with pytest.raises(CorruptStreamError):
        comp.decompress(PressioData.from_bytes(forged + stream[pos:]),
                        PressioData.empty(DType.DOUBLE, dims))


@pytest.mark.parametrize("path", ["serial", "observed", "pipelined"])
def test_zfp_padding_warning_names_the_caller(library, path):
    if path == "pipelined":
        comp = library.get_compressor("pipelined")
        comp.set_inner("zfp")
    else:
        comp = library.get_compressor("zfp")
    assert comp.set_options({"pressio:abs": 1e-3}) == 0
    data = PressioData.from_numpy(np.zeros((16, 1, 8)))
    with pytest.warns(UserWarning, match="zfp pads") as record:
        if path == "observed":
            with tracing():
                comp.compress(data)
        else:
            comp.compress(data)
    pads = [w for w in record if "zfp pads" in str(w.message)]
    assert pads and all(w.filename == __file__ for w in pads)


@pytest.mark.parametrize("dtype, np_dtype", [(DType.FLOAT, np.float32),
                                             (DType.INT32, np.int32)])
def test_fpzip_decodes_to_the_template_dtype(library, dtype, np_dtype):
    comp = library.get_compressor("fpzip")
    arr = np.arange(24, dtype=np.float64).reshape(4, 6)
    stream = comp.compress(PressioData.from_numpy(arr))
    out = comp.decompress(stream, PressioData.empty(dtype, arr.shape))
    assert out.dtype == dtype
    np.testing.assert_array_equal(out.to_numpy(), arr.astype(np_dtype))
