"""Lorenzo finite-difference predictors.

The d-dimensional Lorenzo predictor predicts each value from its
already-visited corner neighbors; its residual is exactly the composition
of first differences along every axis.  On an *integer* field the
prediction is exact arithmetic, so encoding and decoding are both fully
vectorized:

* encode: ``numpy.diff``-style differencing along each axis in turn;
* decode: a prefix sum along each axis, last axis first.  The last
  axis (and any axis whose slabs are small or made of short rows)
  runs ``numpy.cumsum``; a leading axis with large slabs runs as one
  in-place add per slab, ``a[i] += a[i-1]``, because numpy's
  accumulate over a leading axis of a C-contiguous array walks its
  inner loop with a stride of a whole slab (axis 0 of a 128³ field:
  32 ms as ``cumsum``, 1.3 ms as slab adds).  Both orders do the same
  wrap-around uint64 adds, so the result is bit-identical.

This "quantize first, predict on integers" factorization is the
dual-quantization scheme introduced by cuSZ (Tian et al., PACT 2020,
cited by the paper) and keeps the hot loop at C speed rather than the
value-by-value reconstruction loop classic SZ uses.

Encode ping-pongs between at most one scratch buffer and the working
array instead of allocating a fresh array per axis; the native cores
pass pooled scratch (:mod:`repro.native.pool`) so the whole predict
stage runs allocation-free.  Decode sums in place on one working
array, which is the input itself when the caller lets it be clobbered.
"""

from __future__ import annotations

import numpy as np

__all__ = ["lorenzo_encode", "lorenzo_decode"]

#: an axis runs as slab adds only when each slab holds at least this
#: many elements, enough to amortize one ufunc call per slab ...
_SLAB_MIN = 4096
#: ... in contiguous rows at least this long; below either gate
#: ``cumsum`` wins (docs/PERFORMANCE.md §1 has the measurements)
_ROW_MIN = 64


def _diff_axis_into(src: np.ndarray, dst: np.ndarray, axis: int) -> None:
    """``dst = first difference of src along axis`` (dst must not alias)."""
    sl_hi = [slice(None)] * src.ndim
    sl_lo = [slice(None)] * src.ndim
    sl_first = [slice(None)] * src.ndim
    sl_hi[axis] = slice(1, None)
    sl_lo[axis] = slice(None, -1)
    sl_first[axis] = slice(0, 1)
    np.subtract(src[tuple(sl_hi)], src[tuple(sl_lo)],
                out=dst[tuple(sl_hi)])
    dst[tuple(sl_first)] = src[tuple(sl_first)]


def lorenzo_encode(quantized: np.ndarray,
                   scratch: np.ndarray | None = None,
                   clobber: bool = False) -> np.ndarray:
    """Residuals of the d-dimensional Lorenzo predictor on an int field.

    Works in wrap-around unsigned arithmetic internally so extreme
    inputs cannot trip overflow warnings; the decode side wraps back.
    Native signed input keeps its own width (int32 codes give int32
    residuals); any other dtype is cast to int64.  A residual sums
    ``2**ndim`` codes, so the caller must ensure every such sum fits
    the width, as :func:`~repro.encoders.quantize.quantize_uniform`'s
    ``fan_in`` gate does; otherwise residuals wrap.

    ``scratch`` (C-contiguous, at least the working width's bytes per
    element) provides the second ping-pong buffer; with
    ``clobber=True`` the input itself may serve as one, so no
    allocation happens at all.  The returned array aliases whichever
    buffer holds the final pass — either ``scratch`` or (with clobber)
    the input.
    """
    arr = np.ascontiguousarray(quantized)
    if not (arr.dtype.kind == "i" and arr.dtype.isnative):
        arr = arr.astype(np.int64, copy=False)
    signed = arr.dtype
    arr = arr.view(f"u{signed.itemsize}")
    if arr.ndim == 0:
        return arr.reshape(()).copy().view(signed)
    if scratch is None:
        scratch = np.empty_like(arr)
    else:
        scratch = scratch.reshape(-1).view(arr.dtype)[:arr.size].reshape(
            arr.shape)
    cur, nxt = arr, scratch
    first = True
    for axis in range(arr.ndim):
        _diff_axis_into(cur, nxt, axis)
        if first and not clobber:
            # the input must stay intact: bring the second buffer in
            # only after the first pass has moved data off the input
            cur, nxt = nxt, np.empty_like(arr) if arr.ndim > 1 else arr
            first = False
        else:
            cur, nxt = nxt, cur
    return cur.view(signed)


def _prefix_sum_axis(arr: np.ndarray, axis: int) -> None:
    """In-place wrap-around prefix sum of C-contiguous uint64 ``arr``."""
    n = arr.shape[axis]
    row = int(np.prod(arr.shape[axis + 1:], dtype=np.int64))
    if row < _ROW_MIN or arr.size // n < _SLAB_MIN:
        np.cumsum(arr, axis=axis, dtype=np.uint64, out=arr)
        return
    slabs = arr.reshape(-1, n, row)
    for i in range(1, n):
        np.add(slabs[:, i], slabs[:, i - 1], out=slabs[:, i])


def lorenzo_decode(residuals: np.ndarray,
                   clobber: bool = False) -> np.ndarray:
    """Invert :func:`lorenzo_encode` with a prefix sum along each axis.

    The sums run in place on one working copy (or directly on a
    C-contiguous int64 input with ``clobber=True``), so decode
    allocates at most once.
    """
    if clobber:
        arr = np.ascontiguousarray(residuals, dtype=np.int64)
    else:
        arr = np.array(residuals, dtype=np.int64, order="C", ndmin=1)
    arr = arr.view(np.uint64)
    if arr.size:
        for axis in range(arr.ndim - 1, -1, -1):
            _prefix_sum_axis(arr, axis)
    return arr.view(np.int64)
