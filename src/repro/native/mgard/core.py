"""The MGARD-family multilevel compression pipeline.

MGARD compresses by representing data on a hierarchy of grids: each
level keeps the even-indexed samples as the coarse approximation and
stores, for every odd-indexed sample, the *detail* left over after
predicting it by linear interpolation of its coarse neighbors — a
multigrid decomposition.  Details and the coarsest grid are then
quantized (into int32 when the data's extremes prove every code fits,
else int64) and entropy coded.

Error control: reconstruction applies ``odd = detail + interp(even)``
level by level.  Linear interpolation does not amplify error, so the
final L-infinity error is at most the sum of the per-level quantizer
errors; with ``L`` detail levels each level gets an equal share
``tol / (L + 1)`` (the coarse grid takes the last share), guaranteeing
the requested absolute bound for ``s = 0``.

Like real MGARD 0.1.0 (paper Section V), every dimension must have at
least 3 samples — the decomposition needs interior points — otherwise
:class:`InvalidDimensionsError` is raised rather than compressing.
"""

from __future__ import annotations

import math

import numpy as np

from ...core.dtype import dtype_from_numpy, dtype_to_numpy
from ...trace import runtime as _trace
from ...core.status import CorruptStreamError, InvalidDimensionsError
from ...encoders.headers import read_header, write_header
from ...encoders.predictors import lorenzo_decode, lorenzo_encode
from ...encoders.quantize import (dequantize_uniform, int32_fits,
                                 quantize_uniform)
from ...encoders.residual import decode_residuals, encode_residuals
from .. import pool as _pool

__all__ = ["compress", "compress_stage1", "compress_stage2", "decompress",
           "MIN_DIM", "max_levels"]

_MAGIC = b"MGD1"
MIN_DIM = 3
_MAX_LEVELS = 12


def max_levels(dims: tuple[int, ...]) -> int:
    """Number of decomposition levels usable for ``dims``.

    A level halves each axis (keeping evens); we stop before any axis
    would drop below :data:`MIN_DIM` samples.
    """
    levels = 0
    cur = list(dims)
    while levels < _MAX_LEVELS:
        nxt = [(n + 1) // 2 for n in cur]
        if any(n < MIN_DIM for n in nxt):
            break
        cur = nxt
        levels += 1
    return levels


# ----------------------------------------------------------------------
# one level of the transform, one axis at a time
# ----------------------------------------------------------------------
def _interp_even(even: np.ndarray, axis: int, n_odd: int) -> np.ndarray:
    """Predict the odd samples from even neighbors by linear interpolation.

    The k-th odd sample sits between even neighbors k and k+1.  When the
    original axis length is even, the last odd sample has no right even
    neighbor and is predicted from its left neighbor alone.
    """

    def take(arr: np.ndarray, start: int, stop: int) -> np.ndarray:
        sl = [slice(None)] * arr.ndim
        sl[axis] = slice(start, stop)
        return arr[tuple(sl)]

    n_even = even.shape[axis]
    # number of odd samples with both neighbors present
    both = n_odd if n_even > n_odd else n_odd - 1
    lo = take(even, 0, n_odd)
    pred = lo.astype(np.float64, copy=True)
    if both > 0:
        hi = take(even, 1, both + 1)
        interior = [slice(None)] * pred.ndim
        interior[axis] = slice(0, both)
        iview = pred[tuple(interior)]
        np.add(take(lo, 0, both), hi, out=iview)
        iview *= 0.5
    return pred


def _split_axis(arr: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """One lifting step along ``axis``: (even part, detail coefficients)."""
    sl_even = [slice(None)] * arr.ndim
    sl_odd = [slice(None)] * arr.ndim
    sl_even[axis] = slice(0, None, 2)
    sl_odd[axis] = slice(1, None, 2)
    even = arr[tuple(sl_even)]
    odd = arr[tuple(sl_odd)]
    # the detail reuses the prediction buffer (fresh in _interp_even)
    detail = _interp_even(even, axis, odd.shape[axis])
    np.subtract(odd, detail, out=detail)
    return even, detail


def _merge_axis(even: np.ndarray, detail: np.ndarray, axis: int,
                full_len: int) -> np.ndarray:
    """Inverse of :func:`_split_axis`."""
    odd = _interp_even(even, axis, detail.shape[axis])
    np.add(detail, odd, out=odd)
    shape = list(even.shape)
    shape[axis] = full_len
    out = np.empty(shape, dtype=np.float64)
    sl_even = [slice(None)] * out.ndim
    sl_odd = [slice(None)] * out.ndim
    sl_even[axis] = slice(0, None, 2)
    sl_odd[axis] = slice(1, None, 2)
    out[tuple(sl_even)] = even
    out[tuple(sl_odd)] = odd
    return out


def _decompose(arr: np.ndarray, levels: int
               ) -> tuple[np.ndarray, list[list[np.ndarray]], list[tuple[int, ...]]]:
    """Full multilevel decomposition.

    Returns (coarse, details, shapes) where ``details[l]`` holds one
    detail array per axis produced at level ``l`` and ``shapes[l]`` is
    the grid shape entering level ``l`` (needed for reconstruction).
    """
    current = arr.astype(np.float64, copy=False)
    details: list[list[np.ndarray]] = []
    shapes: list[tuple[int, ...]] = []
    for _ in range(levels):
        shapes.append(current.shape)
        level_details: list[np.ndarray] = []
        for axis in range(current.ndim):
            current, detail = _split_axis(current, axis)
            level_details.append(detail)
        details.append(level_details)
    return current, details, shapes


def _reconstruct(coarse: np.ndarray, details: list[list[np.ndarray]],
                 shapes: list[tuple[int, ...]]) -> np.ndarray:
    current = coarse
    for level in range(len(details) - 1, -1, -1):
        entry_shape = shapes[level]
        for axis in range(current.ndim - 1, -1, -1):
            # axis lengths as they were mid-level: axes < axis already
            # split at this level, axes >= axis still full
            full_len = entry_shape[axis]
            current = _merge_axis(current, details[level][axis], axis, full_len)
    return current


# ----------------------------------------------------------------------
# public pipeline
# ----------------------------------------------------------------------
def _level_bounds(tol: float, levels: int, s: float, ndim: int) -> list[float]:
    """Per-level quantizer budget; uniform for s=0, geometric otherwise.

    Each level performs one split per axis and each split's detail error
    enters the reconstruction additively, so a level's share is divided
    by ``ndim``; the coarse grid takes the final undivided share.  The
    shares sum to ``tol``, guaranteeing the L-infinity bound for s=0.
    """
    n_shares = levels + 1
    if s == 0.0:
        weights = np.full(n_shares, tol / n_shares)
    else:
        weights = np.array([2.0 ** (s * l) for l in range(n_shares)])
        weights = tol * weights / weights.sum()
    bounds = list(weights[:-1] / ndim) + [float(weights[-1])]
    return [float(b) for b in bounds]


def _int32_codes_fit(arr: np.ndarray, bounds: list[float]) -> bool:
    """Whether every code :func:`compress_stage1` emits fits int32.

    Decided before quantizing, from the data's extremes.  Every grid of
    the decomposition holds original samples (a split keeps the evens
    and emits details), so a detail — a sample minus a convex
    combination of samples — lies within the value span, give or take
    a few roundings of the magnitude; the coarse grid's samples lie
    within the magnitude, and its Lorenzo residuals sum ``2**ndim``
    codes.  NaN or infinite extremes fail :func:`int32_fits`, so such
    input keeps int64 (and fails in the quantizer, as before).
    """
    lo, hi = float(arr.min()), float(arr.max())
    mag = max(abs(lo), abs(hi))
    span = hi - lo + mag * 2.0**-40
    details_fit = all(int32_fits(span / (2.0 * b), 1) for b in bounds[:-1])
    return details_fit and int32_fits(mag / (2.0 * bounds[-1]),
                                      2**arr.ndim)


def compress_stage1(data: np.ndarray, tol: float, s: float = 0.0,
                    backend: str = "zlib", level: int = 1) -> dict:
    """Numpy-heavy first half: decompose + quantize straight into one
    preallocated (pooled) code buffer, no per-piece concatenation.

    Returns an opaque state for :func:`compress_stage2`; the state may
    alias pooled buffers, so it must be passed to stage 2 exactly once.
    """
    arr = np.asarray(data)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if arr.ndim < 1 or arr.ndim > 3:
        raise InvalidDimensionsError(
            f"mgard supports 1-3 dimensions, got {arr.ndim}"
        )
    if any(d < MIN_DIM for d in arr.shape):
        raise InvalidDimensionsError(
            f"mgard requires at least {MIN_DIM} samples per dimension, "
            f"got {arr.shape}"
        )
    if arr.dtype.kind not in "fiu":
        raise TypeError(f"mgard cannot compress dtype {arr.dtype}")
    dtype = dtype_from_numpy(arr.dtype)
    levels = max_levels(arr.shape)
    bounds = _level_bounds(float(tol), levels, float(s), arr.ndim)
    with _trace.stage("mgard:decompose", levels=levels):
        coarse, details, _shapes = _decompose(
            arr.astype(np.float64, copy=False), levels)
    with _trace.stage("mgard:quantize"):
        # one flat code buffer sized for every piece, quantized into in
        # place of the old build-pieces-then-concatenate sequence
        total = int(sum(d.size for lvl in details for d in lvl)
                    + coarse.size)
        code_dtype = (np.int32 if _int32_codes_fit(arr, bounds)
                      else np.int64)
        allcodes = _pool.acquire((total,), code_dtype)
        try:
            offset = 0
            # finest level gets the first share, coarse grid the last
            for lvl, level_details in enumerate(details):
                eb = bounds[lvl]
                for detail in level_details:
                    n = detail.size
                    scratch = _pool.acquire(detail.shape, np.float64)
                    try:
                        quantize_uniform(
                            detail, eb,
                            out=allcodes[offset:offset + n].reshape(
                                detail.shape),
                            scratch=scratch)
                    finally:
                        _pool.release(scratch)
                    offset += n
            coarse_codes = lorenzo_encode(
                quantize_uniform(coarse, bounds[-1]))
            allcodes[offset:] = coarse_codes.reshape(-1)
        except BaseException:
            _pool.release(allcodes)
            raise
    return {"allcodes": allcodes, "tol": tol, "s": s, "levels": levels,
            "dtype": dtype, "shape": arr.shape, "backend": backend,
            "level": level}


def compress_stage2(state: dict) -> bytes:
    """Entropy-code and frame the output of :func:`compress_stage1`."""
    allcodes = state["allcodes"]
    with _trace.stage("mgard:entropy", backend=state["backend"]):
        try:
            payload = encode_residuals(allcodes, backend=state["backend"],
                                       level=state["level"])
        finally:
            _pool.release(allcodes)
    header = write_header(_MAGIC, state["dtype"], state["shape"],
                          doubles=(float(state["tol"]), float(state["s"])),
                          ints=(state["levels"],))
    return header + payload


def compress(data: np.ndarray, tol: float, s: float = 0.0,
             backend: str = "zlib", level: int = 1) -> bytes:
    """Compress with an absolute L-infinity tolerance ``tol``.

    ``s`` is the smoothness-norm parameter: 0 targets the infinity norm
    (the only mode with a hard guarantee here); nonzero values skew the
    per-level budgets geometrically, as MGARD's s-norms do.
    """
    return compress_stage2(compress_stage1(data, tol, s=s, backend=backend,
                                           level=level))


def decompress(stream: bytes | memoryview,
               expected_dims: tuple[int, ...] | None = None) -> np.ndarray:
    """Decompress an MGARD stream back to an ndarray."""
    dtype, dims, doubles, ints, pos = read_header(stream, _MAGIC)
    if expected_dims is not None and tuple(expected_dims) != dims:
        raise CorruptStreamError(
            f"stream dims {dims} do not match expected {tuple(expected_dims)}"
        )
    tol, s = doubles
    levels = ints[0]
    if not (0 <= levels <= _MAX_LEVELS):
        raise CorruptStreamError(
            f"stream declares {levels} decomposition levels "
            f"(limit {_MAX_LEVELS})")
    if not (tol > 0) or not np.isfinite(tol):
        raise CorruptStreamError(f"stream declares invalid tolerance {tol}")
    bounds = _level_bounds(tol, levels, s, len(dims))
    # replay the decomposition shape computation to size and slice the
    # code buffer
    details_shapes: list[list[tuple[int, ...]]] = []
    cur = list(dims)
    ndim = len(dims)
    for _ in range(levels):
        level_shapes: list[tuple[int, ...]] = []
        shape = list(cur)
        for axis in range(ndim):
            n = shape[axis]
            odd_shape = list(shape)
            odd_shape[axis] = n // 2
            level_shapes.append(tuple(odd_shape))
            shape[axis] = (n + 1) // 2
        details_shapes.append(level_shapes)
        cur = shape
    coarse_shape = tuple(cur)
    total = math.prod(coarse_shape) + sum(
        math.prod(dshape) for level_shapes in details_shapes
        for dshape in level_shapes)
    with _trace.stage("mgard:entropy"):
        allcodes = decode_residuals(memoryview(stream)[pos:], count=total)

    offset = 0
    details: list[list[np.ndarray]] = []
    shapes: list[tuple[int, ...]] = []
    run = list(dims)
    with _trace.stage("mgard:dequantize"):
        for lvl in range(levels):
            shapes.append(tuple(run))
            level_details: list[np.ndarray] = []
            for dshape in details_shapes[lvl]:
                n = math.prod(dshape)
                codes = allcodes[offset:offset + n].reshape(dshape)
                offset += n
                level_details.append(dequantize_uniform(codes, bounds[lvl]))
            details.append(level_details)
            run = [(x + 1) // 2 for x in run]
    # the codes came straight off the decoder, so they are ours
    coarse_codes = lorenzo_decode(
        allcodes[offset:].reshape(coarse_shape), clobber=True)
    coarse = dequantize_uniform(coarse_codes, bounds[-1])
    with _trace.stage("mgard:reconstruct"):
        out = _reconstruct(coarse, details, shapes)
    np_dtype = dtype_to_numpy(dtype)
    if np_dtype.kind in "iu":
        return np.rint(out, out=out).astype(np_dtype)
    return out.astype(np_dtype, copy=False)
