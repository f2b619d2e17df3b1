"""The narrow-width encode path: width identity, exact gates, input checks.

``encode_residuals`` narrows its input once to the smallest signed width
holding the values' range, and the native quantizers emit int32 codes
when that is provably safe.  Neither may change one emitted byte: the
same values encode to one stream whatever dtype, byte order or layout
they arrive in, and each int32 gate falls back to int64 exactly where a
code or residual could leave the int32 range.  The per-plane chooser's
histogram shortcuts are checked against ``np.bincount`` and against
plane encodings recorded before the shortcuts existed.
"""

from __future__ import annotations

import hashlib
from unittest import mock

import numpy as np
import pytest

from repro.encoders import quantize, residual
from repro.encoders.predictors import lorenzo_decode, lorenzo_encode
from repro.encoders.quantize import quantize_uniform
from repro.encoders.residual import decode_residuals, encode_residuals
from repro.native import mgard, sz
from repro.native.mgard import core as mgard_core
from repro.native.sz import ABS, sz_params

N = 4096  # above the RZC1 cutoff, so every stream here is RZC2
I64 = np.iinfo(np.int64)


def _values(lo: int, hi: int, n: int = N) -> np.ndarray:
    """Seeded int64 values in [lo, hi] that include both ends."""
    rng = np.random.default_rng([abs(lo) % 2**32, hi % 2**32])
    v = rng.integers(lo, hi, size=n, dtype=np.int64, endpoint=True)
    v[:2] = [lo, hi]
    return v


# -- one stream per value set ------------------------------------------------

#: value ranges on both sides of every narrowing boundary
BOUNDARIES = {
    "int8": (-(2**7), 2**7 - 1),
    "past_int8_low": (-(2**7) - 1, 5),
    "past_int8_high": (-5, 2**7),
    "int16": (-(2**15), 2**15 - 1),
    "past_int16_low": (-(2**15) - 1, 0),
    "past_int16_high": (0, 2**15),
    "int32": (-(2**31), 2**31 - 1),
    "past_int32_low": (-(2**31) - 1, 3),
    "past_int32_high": (-3, 2**31),
    "int64": (int(I64.min), int(I64.max)),
}


def _fitting_dtypes(lo: int, hi: int) -> list[str]:
    return [d for d in ("i1", "i2", "i4", "i8")
            if np.iinfo(d).min <= lo and hi <= np.iinfo(d).max]


@pytest.mark.parametrize("level", [1, 6])
@pytest.mark.parametrize("name", list(BOUNDARIES))
def test_every_width_encodes_to_one_stream(name, level):
    lo, hi = BOUNDARIES[name]
    v = _values(lo, hi)
    reference = encode_residuals(v, "zlib", level)
    assert reference[:4] == b"RZC2"
    for dt in _fitting_dtypes(lo, hi):
        assert encode_residuals(v.astype(dt), "zlib", level) == reference
    assert np.array_equal(decode_residuals(reference), v)


@pytest.mark.parametrize("name", ["int8", "past_int16_high", "int64"])
def test_layout_and_byte_order_do_not_matter(name):
    lo, hi = BOUNDARIES[name]
    v = _values(lo, hi, 2 * N)
    reference = encode_residuals(v[::2], "zlib", 1)
    strided = v[::2]
    assert not strided.flags.c_contiguous
    assert encode_residuals(strided, "zlib", 1) == reference
    assert encode_residuals(v[::2].astype(">i8"), "zlib", 1) == reference
    grid = v[::2].reshape(64, 64).T  # a Fortran-ordered view
    assert encode_residuals(grid, "zlib", 1) == encode_residuals(
        np.ascontiguousarray(grid), "zlib", 1)


def test_unsigned_input_in_int64_range_matches_signed():
    v = np.abs(_values(-(2**20), 2**20))
    for dt in ("u4", "u8"):
        assert encode_residuals(v.astype(dt)) == encode_residuals(v)


# -- input checks -------------------------------------------------------------

@pytest.mark.parametrize("n", [16, N])  # RZC1 and RZC2
def test_float_input_is_rejected(n):
    with pytest.raises(TypeError, match="integers"):
        encode_residuals(np.linspace(-3.7, 3.7, n))


@pytest.mark.parametrize("n", [16, N])
def test_unsigned_beyond_int64_is_rejected(n):
    v = np.arange(n, dtype=np.uint64)
    v[n // 2] = np.uint64(2**63)
    with pytest.raises(ValueError, match="int64"):
        encode_residuals(v)
    v[n // 2] = np.uint64(2**63 - 1)  # the last value that fits
    assert decode_residuals(encode_residuals(v))[n // 2] == 2**63 - 1


# -- the pair-view histogram --------------------------------------------------

@pytest.mark.parametrize("n", [0, 1, 2, 3, 2**18 + 1])
def test_pair_view_histogram_is_bincount(n):
    plane = np.random.default_rng(n).integers(0, 256, n, dtype=np.uint8)
    expected = np.bincount(plane, minlength=256)
    assert np.array_equal(residual._byte_histogram(plane), expected)


def test_pair_view_histogram_of_a_saturated_plane():
    plane = np.full(2**18 + 1, 255, dtype=np.uint8)
    counts = residual._byte_histogram(plane)
    assert counts[255] == plane.size
    assert counts.sum() == plane.size


def test_pair_view_histogram_of_an_unaligned_plane():
    plane = np.random.default_rng(5).integers(0, 256, 1001,
                                              dtype=np.uint8)[1:]
    assert np.array_equal(residual._byte_histogram(plane),
                          np.bincount(plane, minlength=256))


# -- the exact histogram skip gate --------------------------------------------

def _near_empty(n: int, k: int) -> np.ndarray:
    rng = np.random.default_rng([n, k])
    plane = np.zeros(n, dtype=np.uint8)
    plane[rng.choice(n, size=k, replace=False)] = rng.integers(1, 256, k)
    return plane


#: (n, nonzero bytes, level) -> (tag, SHA-256 of the payload), recorded
#: from the chooser before it skipped any histogram.  At n = 2**18 the
#: low-effort gate fires up to k = 818 (4 + 5k <= 4096 width nibbles).
GATE_PINS = {
    (2**18, 0, 1): (residual._P_CONST, "6e340b9cffb37a989ca544e6bb780a2c"
                    "78901d3fb33738768511a30617afa01d"),
    (2**18, 0, 6): (residual._P_CONST, "6e340b9cffb37a989ca544e6bb780a2c"
                    "78901d3fb33738768511a30617afa01d"),
    (2**18, 5, 1): (residual._P_SPARSE, "6462ec85413e0d9babd23ff23f87af4d"
                    "d6f94f6d4f92cf52238ef754a2eae4e7"),
    (2**18, 5, 6): (residual._P_SPARSE, "6462ec85413e0d9babd23ff23f87af4d"
                    "d6f94f6d4f92cf52238ef754a2eae4e7"),
    (2**18, 818, 1): (residual._P_SPARSE, "3568099577f0cccce87ea78c08c8f494"
                      "d7423e0ed4549ac2a1c5a97081c5ec55"),
    (2**18, 818, 6): (residual._P_ZLIB, "28f0b89476554270ecef55b8bc415a35"
                      "163fc0110c5fd36ed69a0d4b707f4605"),
    (2**18, 819, 1): (residual._P_SPARSE, "57bcefdd28c4515c745d7a27d31b0537"
                      "3b60b92d5d5be67ae7a9ecb2246fbf26"),
    (2**18, 819, 6): (residual._P_ZLIB, "c8fbd125728f85e9554b816eded2fa90"
                      "de0c9c0132b6097e691262cbdc2b18ba"),
    (2048, 3, 1): (residual._P_SPARSE, "3dacacf6cbddae15970a85e0cae9777b"
                   "022702742091479b8fb8f4057d32040a"),
    (2048, 3, 6): (residual._P_SPARSE, "3dacacf6cbddae15970a85e0cae9777b"
                   "022702742091479b8fb8f4057d32040a"),
    (2049, 5, 1): (residual._P_SPARSE, "82a48abe8f03f18d9f2a976c64741238"
                   "ec4908417febcaf2073be736ba75d259"),
    (2049, 5, 6): (residual._P_SPARSE, "82a48abe8f03f18d9f2a976c64741238"
                   "ec4908417febcaf2073be736ba75d259"),
}


@pytest.mark.parametrize("key", list(GATE_PINS), ids=str)
def test_histogram_is_skipped_exactly_where_the_outcome_is_known(key):
    n, k, level = key
    plane = _near_empty(n, k)
    nchunks = (n + 31) // 32
    skips = k == 0 or (level <= 4 and 4 + 5 * k <= (nchunks + 1) // 2)
    with mock.patch.object(residual, "_byte_histogram",
                           wraps=residual._byte_histogram) as spy:
        tag, payload = residual._encode_plane(plane, level, True)
    assert spy.call_count == (0 if skips else 1)
    assert (tag, hashlib.sha256(payload).hexdigest()) == GATE_PINS[key]


# -- int32 stage-1 codes ------------------------------------------------------

@pytest.mark.parametrize("fan_in", [1, 2, 8])
def test_quantizer_narrows_exactly_below_the_fan_in_bound(fan_in):
    # eb = 1/2 makes the scaled values the values themselves
    top = 2**31 // fan_in - 1  # (top + 1) * fan_in == 2**31: stays int64
    for peak, narrow in ((top - 1, True), (top - 0.25, True), (top, False)):
        values = np.array([0.0, -peak, peak, 3.0])
        codes = quantize_uniform(values, 0.5, fan_in=fan_in)
        assert codes.dtype == (np.int32 if narrow else np.int64)
        assert np.array_equal(codes, quantize_uniform(values, 0.5))


def test_narrow_codes_land_in_the_leading_half_of_out():
    values = np.linspace(-100.0, 100.0, 24).reshape(2, 3, 4)
    out = np.full(values.shape, -1, dtype=np.int64)
    codes = quantize_uniform(values, 0.5, out=out, fan_in=8)
    assert codes.dtype == np.int32 and codes.shape == values.shape
    assert np.shares_memory(codes, out)
    assert np.array_equal(codes, quantize_uniform(values, 0.5))


def test_lorenzo_keeps_the_native_signed_width():
    q = _values(-(2**28), 2**28 - 1, 4096).reshape(64, 64)
    wide = lorenzo_encode(q)
    assert wide.dtype == np.int64
    assert np.array_equal(lorenzo_decode(wide), q)
    # every 4-term sum fits int32, so int32 residuals equal the int64 ones
    kept = lorenzo_encode(q.astype(np.int32))
    assert kept.dtype == np.int32
    assert np.array_equal(kept, wide)
    # anything but native signed input is widened to int64
    for dtype in (">i4", np.uint16, np.int64):
        out = lorenzo_encode((q % 2**15).astype(dtype))
        assert out.dtype == np.int64
        assert np.array_equal(out, lorenzo_encode(q % 2**15))


def _alternating(peak: float, shape=(4096,)) -> np.ndarray:
    """The worst case for a Lorenzo residual: a +peak/-peak checkerboard."""
    idx = np.indices(shape).sum(axis=0)
    return np.where(idx % 2 == 0, peak, -peak).astype(np.float64)


@pytest.mark.parametrize("shape", [(4096,), (64, 64), (16, 16, 16)])
@pytest.mark.parametrize("below", [True, False])
def test_sz_streams_match_the_int64_path_at_the_gate(shape, below):
    fan_in = 2 ** len(shape)
    top = 2**31 // fan_in - 1
    data = _alternating(top - 1 if below else top, shape)
    params = sz_params(errorBoundMode=ABS, absErrBound=0.5)
    narrow = sz.compress(data, params)
    with mock.patch.object(quantize, "_INT32_LIMIT", 0):
        wide = sz.compress(data, params)
    assert narrow == wide
    assert np.abs(sz.decompress(narrow) - data).max() <= 0.5


@pytest.mark.parametrize("tol,narrow", [(1e-2, True), (1e-5, True),
                                        (1e-9, False)])
def test_mgard_streams_match_the_int64_path(tol, narrow):
    data = _alternating(1.0, (33, 40, 40)) + np.linspace(0, 50, 40)
    bounds = mgard_core._level_bounds(tol, mgard_core.max_levels(data.shape),
                                      0.0, data.ndim)
    assert mgard_core._int32_codes_fit(data, bounds) == narrow
    stream = mgard.compress(data, tol)
    with mock.patch.object(quantize, "_INT32_LIMIT", 0):
        assert not mgard_core._int32_codes_fit(data, bounds)
        assert mgard.compress(data, tol) == stream
    assert np.abs(mgard.decompress(stream) - data).max() <= tol * (1 + 1e-9)


def test_mgard_int32_gate():
    data = np.linspace(-5.0, 20.0, 27).reshape(3, 3, 3)
    bounds = mgard_core._level_bounds(1e-3, 0, 0.0, 3)
    assert mgard_core._int32_codes_fit(data, bounds)
    assert not mgard_core._int32_codes_fit(data, [1e-9] + bounds)
    assert not mgard_core._int32_codes_fit(data * 1e9, bounds)
    assert not mgard_core._int32_codes_fit(
        np.where(data > 0, np.nan, data), bounds)
