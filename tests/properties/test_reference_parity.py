"""Vectorized kernels are byte-identical to their scalar references.

The production encoders (:mod:`repro.encoders`) are numpy-vectorized;
:mod:`repro.encoders._reference` keeps per-element transliterations of
the same algorithms.  These properties pin the two byte-identical across
dtypes, degenerate shapes (size-1 axes, scalars-as-1d), adversarial
values (int64 extremes, subnormals), and — for the quantizer — NaN/inf
rejection parity.  Randomness derives from ``PRESSIO_TEST_SEED`` via
this directory's conftest.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.encoders import (
    dequantize_uniform,
    lorenzo_decode,
    lorenzo_encode,
    quantize_uniform,
    zigzag_decode,
    zigzag_encode,
)
from repro.encoders import residual
from repro.encoders._reference import (
    _bitpack_reference,
    _bitunpack_reference,
    _decode_dequantize_reference,
    _decode_lorenzo_reference,
    _decode_zigzag_reference,
    _encode_lorenzo_reference,
    _encode_quantize_reference,
    _encode_zigzag_reference,
)
from repro.encoders.huffman import HuffmanCodec, huffman_decode

degenerate_shapes = st.sampled_from(
    [(1,), (1, 1), (1, 1, 1), (1, 5), (5, 1), (1, 5, 1), (3, 1, 4)])
shapes = st.one_of(
    degenerate_shapes,
    hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=9),
)

int64_extremes = st.sampled_from(
    [np.int64(2 ** 62), np.int64(-2 ** 62), np.int64(2 ** 63 - 1),
     np.int64(-2 ** 63), np.int64(0), np.int64(-1)])


# -- quantizer --------------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.float32, np.float64,
                                   np.int32, np.uint16])
def test_quantize_parity_across_dtypes(dtype):
    rng = np.random.default_rng(0)
    if np.issubdtype(dtype, np.floating):
        values = (rng.standard_normal((6, 7)) * 100).astype(dtype)
    else:
        values = rng.integers(0, 1000, (6, 7)).astype(dtype)
    for eb in (1e-6, 1e-3, 0.5, 10.0):
        fast = quantize_uniform(values, eb)
        ref = _encode_quantize_reference(values, eb)
        assert fast.tobytes() == ref.tobytes()
        assert (dequantize_uniform(fast, eb, np.dtype(np.float64)).tobytes()
                == _decode_dequantize_reference(ref, eb).tobytes())


@given(hnp.arrays(dtype=np.float64, shape=shapes,
                  elements=st.floats(-1e12, 1e12, allow_nan=False)),
       st.floats(1e-9, 1e3))
@settings(max_examples=40, deadline=None)
def test_quantize_parity_property(values, eb):
    try:
        fast = quantize_uniform(values, eb)
    except ValueError:
        # overflow rejection must agree too
        with pytest.raises(ValueError):
            _encode_quantize_reference(values, eb)
        return
    assert fast.tobytes() == _encode_quantize_reference(values, eb).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_quantize_nonfinite_rejection_parity(bad):
    values = np.array([1.0, bad, 2.0])
    with pytest.raises(ValueError):
        quantize_uniform(values, 1e-3)
    with pytest.raises(ValueError):
        _encode_quantize_reference(values, 1e-3)


def test_quantize_subnormal_and_huge_step_parity():
    values = np.array([5e-324, -5e-324, 1e-300, 0.0])
    for eb in (1e-3, 1e300):
        assert (quantize_uniform(values, eb).tobytes()
                == _encode_quantize_reference(values, eb).tobytes())


# -- zigzag -----------------------------------------------------------------

@given(hnp.arrays(dtype=np.int64, shape=shapes,
                  elements=st.one_of(int64_extremes,
                                     st.integers(-2 ** 63, 2 ** 63 - 1))))
@settings(max_examples=40, deadline=None)
def test_zigzag_parity_including_extremes(arr):
    fast = zigzag_encode(arr.reshape(-1))
    ref = _encode_zigzag_reference(arr.reshape(-1))
    assert fast.tobytes() == ref.tobytes()
    assert (zigzag_decode(fast).tobytes()
            == _decode_zigzag_reference(ref).tobytes())


# -- lorenzo ----------------------------------------------------------------

@given(hnp.arrays(dtype=np.int64, shape=shapes,
                  elements=st.one_of(int64_extremes,
                                     st.integers(-2 ** 40, 2 ** 40))))
@settings(max_examples=40, deadline=None)
def test_lorenzo_parity_with_wraparound(arr):
    fast = lorenzo_encode(arr)
    ref = _encode_lorenzo_reference(arr)
    assert fast.tobytes() == ref.tobytes()
    assert (lorenzo_decode(fast).tobytes()
            == _decode_lorenzo_reference(ref).tobytes())


@pytest.mark.parametrize("shape", [(1,), (1, 1), (1, 5, 1), (2, 3, 4)])
def test_lorenzo_parity_degenerate_dims(shape):
    rng = np.random.default_rng(1)
    arr = rng.integers(-1000, 1000, shape, dtype=np.int64)
    assert (lorenzo_encode(arr).tobytes()
            == _encode_lorenzo_reference(arr).tobytes())


# -- RZC2 bitpack -----------------------------------------------------------

@st.composite
def bitpack_planes(draw):
    """uint8 planes whose 32-value chunks each top out at a drawn width
    in 0..8 — mixed widths, ragged lengths, or every chunk at 8."""
    n = draw(st.integers(1, 600))
    nchunks = (n + 31) // 32
    widths = draw(st.one_of(
        st.lists(st.integers(0, 8), min_size=nchunks, max_size=nchunks),
        st.just([8] * nchunks)))
    raw = draw(hnp.arrays(np.uint8, nchunks * 32))
    top = np.repeat(np.array(widths, dtype=np.int64), 32)
    vals = raw.astype(np.int64) & ((1 << top) - 1)
    # pin each chunk's width: its first value carries the top bit
    first = np.arange(nchunks) * 32
    vals[first] |= np.where(top[first] > 0, 1 << (top[first] - 1), 0)
    return vals[:n].astype(np.uint8)


def _bitpack(plane: np.ndarray) -> bytes:
    """Production BITPACK body, framed the way ``_encode_plane`` does."""
    nchunks = (plane.size + 31) // 32
    full = np.zeros(nchunks * 32, dtype=np.uint8)
    full[:plane.size] = plane
    widths = residual._BITLEN8[full.reshape(nchunks, 32).max(axis=1)]
    return residual._bitpack_chunks(full, nchunks, widths)


@given(bitpack_planes())
@example(np.full(2048, 255, dtype=np.uint8))
@example(np.arange(1000, dtype=np.int64).astype(np.uint8))
@settings(max_examples=60, deadline=None)
def test_bitpack_matches_per_bit_reference(plane):
    ref = _bitpack_reference(plane)
    assert _bitpack(plane) == ref
    out = np.empty(plane.size, dtype=np.uint8)
    residual._bitunpack_chunks(memoryview(ref), plane.size, out)
    assert out.tobytes() == plane.tobytes()
    assert _bitunpack_reference(ref, plane.size).tobytes() == plane.tobytes()


# -- huffman ----------------------------------------------------------------

@given(st.lists(st.integers(0, 40), min_size=1, max_size=3000))
@settings(max_examples=30, deadline=None)
def test_huffman_wavefront_matches_scalar_decode(symbols):
    """The block-synced wavefront decoder and the per-bit tree walk are
    the same function: identical symbols from identical payloads."""
    arr = np.asarray(symbols, dtype=np.uint64)
    codec = HuffmanCodec.from_data(arr)
    payload, nbits = codec.encode(arr)
    scalar = codec.decode_scalar(payload, arr.size)
    # exercise the vectorized path regardless of the size cutoff by
    # computing real block boundaries from the encoded widths
    widths = codec.symbol_widths(arr)
    edges = np.arange(64, arr.size, 64)
    csum = np.cumsum(widths)
    marks = np.concatenate((csum[edges - 1], csum[-1:]))
    block_bits = np.diff(np.concatenate(([0], marks)))
    if codec.max_length <= 57:
        wavefront = codec._decode_wavefront(payload, arr.size, block_bits)
        assert np.array_equal(wavefront, scalar)
    assert np.array_equal(scalar, arr)


@pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.int64])
def test_huffman_container_roundtrip_dtypes(dtype):
    rng = np.random.default_rng(9)
    arr = rng.integers(0, 50, 4096).astype(dtype)
    from repro.encoders.huffman import huffman_encode

    stream = huffman_encode(np.asarray(arr, dtype=np.uint64))
    out = huffman_decode(stream)
    assert np.array_equal(out.astype(dtype), arr)
