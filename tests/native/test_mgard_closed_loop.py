"""The closed-loop mgard encoder: its buffer is the decoder's output.

For every shape from the 3-sample minimum up (odd and even, 1-D to
3-D), every level count from 0 to ``max_levels``, float64, float32 and
int32 input and ``s`` in {0, 1, -1}, the encoder's in-place buffer,
cast as the decoder casts, equals ``decompress`` bit for bit, and the
error stays within the requested bound.  Level counts below
``max_levels`` are framed here as ``compress_stage2`` frames them;
at ``max_levels`` the framed stream must equal ``compress``'s.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dtype import dtype_from_numpy
from repro.encoders.headers import write_header
from repro.encoders.residual import encode_residuals
from repro.native import mgard
from repro.native.mgard.core import (MIN_DIM, _detail_span, _encode,
                                     _level_bounds, _quantizer_tol,
                                     max_levels)

SHAPES = [(3,), (4,), (5,), (6,), (9,), (16,), (17,), (33,),
          (3, 3), (4, 5), (5, 5), (6, 8), (9, 13), (16, 17),
          (3, 3, 3), (4, 5, 6), (5, 5, 5), (6, 6, 5), (9, 8, 7),
          (17, 16, 6)]


def _field(shape: tuple[int, ...], dtype: str) -> np.ndarray:
    rng = np.random.default_rng([len(shape), *shape])
    walk = rng.standard_normal(shape)
    for axis in range(len(shape)):
        walk = walk.cumsum(axis=axis)
    if dtype == "int32":
        return np.rint(walk * 100).astype(np.int32)
    return walk.astype(dtype)


def _encode_stream(arr: np.ndarray, levels: int, tol: float,
                   s: float) -> tuple[np.ndarray, bytes]:
    """The encoder's buffer and stream for ``levels`` levels."""
    lo, hi = float(arr.min()), float(arr.max())
    qtol = _quantizer_tol(tol, arr.dtype, max(-lo, hi))
    bounds = _level_bounds(qtol, levels, s, arr.ndim)
    buf = arr.astype(np.float64)
    codes = np.empty(buf.size, dtype=np.int64)
    _encode(buf, levels, bounds, codes, np.empty(buf.size // 2),
            np.empty(buf.size // 2), _detail_span(lo, hi, bounds))
    header = write_header(b"MGD2", dtype_from_numpy(arr.dtype), arr.shape,
                          doubles=(qtol, s), ints=(levels,))
    return buf, header + encode_residuals(codes)


def _as_decoded(buf: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """``buf`` cast to ``dtype`` the way :func:`mgard.decompress` does."""
    if dtype.kind in "iu":
        return np.rint(buf).astype(dtype)
    return buf.astype(dtype, copy=False)


def test_shapes_start_at_the_minimum():
    assert min(min(shape) for shape in SHAPES) == MIN_DIM


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_encoder_buffer_is_the_decoded_output(shape):
    for dtype in ("float64", "float32", "int32"):
        arr = _field(shape, dtype)
        for rel in (1e-2, 1e-5):
            tol = rel * float(arr.max() - arr.min())
            for s in (0.0, 1.0, -1.0):
                for levels in range(max_levels(shape) + 1):
                    buf, stream = _encode_stream(arr, levels, tol, s)
                    out = mgard.decompress(stream)
                    case = (dtype, rel, s, levels)
                    assert out.dtype == arr.dtype, case
                    if levels:
                        assert (out.tobytes()
                                == _as_decoded(buf, arr.dtype).tobytes()), case
                    else:
                        # no split reads the coarse grid: left untouched
                        assert np.array_equal(buf, arr), case
                    err = np.abs(out.astype(np.float64)
                                 - arr.astype(np.float64)).max()
                    assert err <= tol * (1 + 1e-9), case
                    if levels == max_levels(shape):
                        assert stream == mgard.compress(arr, tol, s=s), case


@pytest.mark.parametrize("dtype", ["float32", "int32"])
def test_output_cast_stays_within_the_bound(dtype):
    # the narrow output's own rounding is held back from the quantizers'
    # tolerance, down to bounds near the dtype's resolution
    arr = _field((24, 20, 18), dtype)
    span = float(arr.max()) - float(arr.min())
    for rel in (1e-3, 1e-5, 1e-7, 1e-8):
        tol = rel * span
        out = mgard.decompress(mgard.compress(arr, tol))
        err = np.abs(out.astype(np.float64) - arr.astype(np.float64)).max()
        assert err <= tol * (1 + 1e-9), rel
