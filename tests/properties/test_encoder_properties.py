"""Property-based tests (hypothesis) for the encoding substrate."""

import zlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.encoders import (
    decode_residuals,
    encode_residuals,
    lorenzo_decode,
    lorenzo_encode,
    quantize_uniform,
    dequantize_uniform,
    varint_decode_array,
    varint_encode_array,
    zigzag_decode,
    zigzag_encode,
)
from repro.encoders import residual
from repro.encoders.huffman import huffman_decode, huffman_encode
from repro.encoders.lz77 import lz77_decode, lz77_encode
from repro.encoders.rle import rle_decode, rle_encode

int64_arrays = hnp.arrays(
    dtype=np.int64,
    shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=20),
    elements=st.integers(-(2**60), 2**60),
)


@given(int64_arrays)
@settings(max_examples=50, deadline=None)
def test_zigzag_roundtrip(arr):
    flat = arr.reshape(-1)
    assert np.array_equal(zigzag_decode(zigzag_encode(flat)), flat)


@given(int64_arrays)
@settings(max_examples=50, deadline=None)
def test_residual_codec_roundtrip(arr):
    flat = arr.reshape(-1)
    assert np.array_equal(decode_residuals(encode_residuals(flat)), flat)


@given(int64_arrays)
@settings(max_examples=50, deadline=None)
def test_lorenzo_roundtrip(arr):
    assert np.array_equal(lorenzo_decode(lorenzo_encode(arr)), arr)


@given(hnp.arrays(dtype=np.uint64,
                  shape=st.integers(0, 200),
                  elements=st.integers(0, 2**63 - 1)))
@settings(max_examples=50, deadline=None)
def test_varint_array_roundtrip(arr):
    enc = varint_encode_array(arr)
    dec, consumed = varint_decode_array(enc, arr.size)
    assert np.array_equal(dec, arr)
    assert consumed == len(enc)


@given(
    hnp.arrays(dtype=np.float64,
               shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1,
                                      max_side=15),
               elements=st.floats(-1e6, 1e6)),
    st.floats(1e-6, 10.0),
)
@settings(max_examples=80, deadline=None)
def test_quantizer_always_honors_bound(arr, eb):
    codes = quantize_uniform(arr, eb)
    recon = dequantize_uniform(codes, eb).reshape(arr.shape)
    fp_slack = 2.0**-52 * (np.abs(arr).max() if arr.size else 0.0)
    assert np.abs(arr - recon).max() <= eb * (1 + 1e-9) + fp_slack


@given(hnp.arrays(dtype=np.uint64, shape=st.integers(1, 2000),
                  elements=st.integers(0, 100)))
@settings(max_examples=40, deadline=None)
def test_huffman_roundtrip(arr):
    assert np.array_equal(huffman_decode(huffman_encode(arr)), arr)


@given(st.binary(max_size=4096))
@settings(max_examples=60, deadline=None)
def test_rle_roundtrip(data):
    assert rle_decode(rle_encode(data), len(data)) == data


@given(st.binary(max_size=2048))
@settings(max_examples=40, deadline=None)
def test_lz77_roundtrip(data):
    assert lz77_decode(lz77_encode(data), len(data)) == data


@given(st.lists(st.sampled_from([b"abc", b"hello world", b"\x00\x01",
                                 b"repeat"]), min_size=0, max_size=200))
@settings(max_examples=30, deadline=None)
def test_lz77_repetitive_streams(parts):
    data = b"".join(parts)
    encoded = lz77_encode(data)
    assert lz77_decode(encoded, len(data)) == data


@st.composite
def low_width_planes(draw):
    """Byte planes of 2048-70000 bytes whose values mostly sit below a
    small top, in runs of a drawn mean length, with a drawn fraction of
    them anywhere up to 255: 2- and 4-bit packs with and without
    escapes, and planes too wide to pack."""
    n = draw(st.integers(2048, 70_000))
    top = draw(st.sampled_from([1, 2, 3, 5, 14, 15]))
    run = draw(st.sampled_from([1, 3, 12]))
    wide = draw(st.sampled_from([0.0, 0.001, 0.02, 0.1, 0.2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(0, top + 1, n // run + 1).astype(np.uint8)
    plane = np.repeat(values, run)[:n]
    hit = rng.random(n) < wide
    plane[hit] = rng.integers(0, 256, int(hit.sum()))
    return plane


@given(low_width_planes(), st.sampled_from([1, 6]))
@settings(max_examples=40, deadline=None)
def test_packed_planes_roundtrip_and_never_exceed_whole_deflate(plane,
                                                                level):
    tag, payload = residual._encode_plane(plane, level, "zlib")
    out = np.empty_like(plane)
    residual._decode_plane(tag, memoryview(payload), plane.size, out, "zlib")
    assert np.array_equal(out, plane)
    if level == 6:
        assert len(payload) <= len(residual._deflate_plane(
            plane, 6, zlib.Z_HUFFMAN_ONLY))
