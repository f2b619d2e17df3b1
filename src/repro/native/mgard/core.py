"""The MGARD-family multilevel compression pipeline.

MGARD compresses by representing data on a hierarchy of grids: each
level keeps the even-indexed samples as the coarse approximation and
stores, for every odd-indexed sample, the *detail* left over after
predicting it by linear interpolation of its coarse neighbors — a
multigrid decomposition.  The transform runs in place on one float64
buffer: every grid is a strided view of it, and each split overwrites
its odd samples with their details.  Details and the coarsest grid
are then quantized (into int32 when the data's extremes prove every
code fits, else int64) and entropy coded.

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
# the transform, lifted in place on one buffer
# ----------------------------------------------------------------------
def _splits(ndim: int, levels: int):
    """Yield ``(level, axis, grid, odd)`` for every split, finest first.

    A level splits each axis in turn, so the split at ``(level, axis)``
    sees the grid of stride ``2**(level+1)`` on the axes already halved
    at this level and ``2**level`` on the rest.  ``grid`` and ``odd``
    are basic-slice indices into the full buffer: the grid, and the odd
    samples along ``axis`` that the split replaces by details.  Every
    sample ends up either a detail or in the coarse grid (stride
    ``2**levels`` on every axis), and the grids of later splits hold
    only samples no earlier split wrote.
    """
    for level in range(levels):
        for axis in range(ndim):
            grid = tuple(slice(None, None, 2 ** (level + (b < axis)))
                         for b in range(ndim))
            odd = (grid[:axis] + (slice(2**level, None, 2 ** (level + 1)),)
                   + grid[axis + 1:])
            yield level, axis, grid, odd


def _coarse(ndim: int, levels: int) -> tuple[slice, ...]:
    """Index of the coarse grid left after ``levels`` levels of splits."""
    return (slice(None, None, 2**levels),) * ndim


def _lift(grid: np.ndarray, axis: int, forward: bool) -> None:
    """Replace the odd samples along ``axis`` by their details, or back.

    The k-th odd sample is predicted by the mean of its even neighbors
    k and k+1.  When the axis length is even, the last odd sample has
    no right neighbor and is predicted by its left one alone.
    """
    n = grid.shape[axis]
    both = (n - 1) // 2  # odd samples with both neighbors present

    def along(start: int, stop: int) -> np.ndarray:
        sl = [slice(None)] * grid.ndim
        sl[axis] = slice(start, stop, 2)
        return grid[tuple(sl)]

    op = np.subtract if forward else np.add
    pred = np.add(along(0, 2 * both), along(2, 2 * both + 1))
    pred *= 0.5
    odd = along(1, 2 * both)
    op(odd, pred, out=odd)
    if n % 2 == 0:
        last = along(n - 1, n)
        op(last, along(n - 2, n - 1), out=last)


def _decompose(buf: np.ndarray, levels: int) -> None:
    """Multilevel decomposition of the float64 ``buf``, in place."""
    for _level, axis, grid, _odd in _splits(buf.ndim, levels):
        _lift(buf[grid], axis, True)


def _reconstruct(buf: np.ndarray, levels: int) -> None:
    """Invert :func:`_decompose` in place, coarsest split first."""
    for _level, axis, grid, _odd in reversed(list(_splits(buf.ndim,
                                                          levels))):
        _lift(buf[grid], axis, False)


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
    """Numpy-heavy first half: decompose in place on one pooled copy of
    the input, then quantize straight into one pooled code buffer.

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
    code_dtype = np.int32 if _int32_codes_fit(arr, bounds) else np.int64
    buf = _pool.acquire(arr.shape, np.float64)
    # the scaled details pass through one contiguous scratch buffer,
    # as large as the first (largest) split's details
    scratch = _pool.acquire((buf.size // 2,), np.float64)
    allcodes = _pool.acquire((buf.size,), code_dtype)
    try:
        with _trace.stage("mgard:decompose", levels=levels):
            np.copyto(buf, arr)
            _decompose(buf, levels)
        with _trace.stage("mgard:quantize"):
            offset = 0
            # finest level gets the first share, coarse grid the last
            for lvl, _axis, _grid, odd in _splits(arr.ndim, levels):
                detail = buf[odd]
                n = detail.size
                quantize_uniform(
                    detail, bounds[lvl],
                    out=allcodes[offset:offset + n].reshape(detail.shape),
                    scratch=scratch[:n].reshape(detail.shape))
                offset += n
            coarse_codes = lorenzo_encode(quantize_uniform(
                buf[_coarse(arr.ndim, levels)], bounds[-1]))
            allcodes[offset:] = coarse_codes.reshape(-1)
    except BaseException:
        _pool.release(allcodes)
        raise
    finally:
        _pool.release(buf, scratch)
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
    dtype, dims, doubles, ints, pos = read_header(stream, _MAGIC,
                                                  expected_dims)
    if not 1 <= len(dims) <= 3:
        raise CorruptStreamError(
            f"stream declares {len(dims)} dimensions (mgard supports 1-3)")
    tol, s = doubles
    levels = ints[0]
    if not (0 <= levels <= _MAX_LEVELS):
        raise CorruptStreamError(
            f"stream declares {levels} decomposition levels "
            f"(limit {_MAX_LEVELS})")
    if not (tol > 0) or not np.isfinite(tol):
        raise CorruptStreamError(f"stream declares invalid tolerance {tol}")
    bounds = _level_bounds(tol, levels, s, len(dims))
    # every sample is either a detail or in the coarse grid
    with _trace.stage("mgard:entropy"):
        allcodes = decode_residuals(memoryview(stream)[pos:],
                                    count=math.prod(dims))
    # sized from the dims only now that the residual count agrees
    out = np.empty(dims, dtype=np.float64)
    offset = 0
    with _trace.stage("mgard:dequantize"):
        for lvl, _axis, _grid, odd in _splits(len(dims), levels):
            detail = out[odd]
            n = detail.size
            dequantize_uniform(allcodes[offset:offset + n].reshape(
                detail.shape), bounds[lvl], out=detail)
            offset += n
    coarse = out[_coarse(len(dims), levels)]
    # the codes came straight off the decoder, so they are ours
    coarse_codes = lorenzo_decode(
        allcodes[offset:].reshape(coarse.shape), clobber=True)
    dequantize_uniform(coarse_codes, bounds[-1], out=coarse)
    with _trace.stage("mgard:reconstruct"):
        _reconstruct(out, levels)
    np_dtype = dtype_to_numpy(dtype)
    if np_dtype.kind in "iu":
        return np.rint(out, out=out).astype(np_dtype)
    return out.astype(np_dtype, copy=False)
