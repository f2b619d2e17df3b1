"""The MGARD-family multilevel compression pipeline.

MGARD compresses by representing data on a hierarchy of grids: each
level keeps the even-indexed samples as the coarse approximation and
stores, for every odd-indexed sample, the *detail* left over after
predicting it by linear interpolation of its coarse neighbors — a
multigrid decomposition.  The encoder runs in place on one float64
buffer, every grid a strided view of it: it quantizes the coarsest
grid, then visits the splits coarsest first, quantizing each odd
sample's detail and writing back the value the decoder will rebuild.
The codes (int32 when the data's extremes prove every code fits, else
int64) are entropy coded, finest split first and the coarse grid's
Lorenzo residuals last.

Error control: the encoder is closed-loop, as SZ3's interpolation
predictor is.  Each odd sample is predicted from *reconstructed* evens,
the very values the decoder will hold, so a sample's error is its own
quantizer's and nothing accumulates down the levels: every level spends
the full absolute bound for ``s = 0``, and for other ``s`` the
geometric level weights are scaled so the largest is the bound.  The
L-infinity bound holds for every ``s``; the tolerance the quantizers
spend is the requested one less what float64 rounding and the cast to
the input's dtype can add (:func:`_quantizer_tol`).  Streams carry the
magic ``MGD2``.  The decoder also reads the older open-loop ``MGD1``
streams, whose levels shared the bound: its one path only takes the
per-level bounds from the magic.

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

_MAGIC = b"MGD2"
#: the open-loop format, still decoded (see :func:`_level_bounds`)
_MAGIC_OPEN = b"MGD1"
MIN_DIM = 3
_EPS = float(np.finfo(np.float64).eps)
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


def _along(grid: np.ndarray, axis: int, start: int, stop: int) -> np.ndarray:
    """Every second sample of ``grid`` along ``axis`` in ``[start, stop)``."""
    sl = [slice(None)] * grid.ndim
    sl[axis] = slice(start, stop, 2)
    return grid[tuple(sl)]


def _predict(grid: np.ndarray, axis: int, out: np.ndarray) -> None:
    """Write the prediction of every odd sample along ``axis`` into
    ``out``, which is shaped like the odd samples.

    The k-th odd sample is predicted by the mean of its even neighbors
    k and k+1.  When the axis length is even, the last odd sample has
    no right neighbor and is predicted by its left one alone.
    """
    n = grid.shape[axis]
    both = (n - 1) // 2  # odd samples with both neighbors present
    sl = [slice(None)] * out.ndim
    sl[axis] = slice(None, both)
    mean = out[tuple(sl)]
    np.add(_along(grid, axis, 0, 2 * both),
           _along(grid, axis, 2, 2 * both + 1), out=mean)
    mean *= 0.5
    if n % 2 == 0:
        sl[axis] = slice(both, None)
        np.copyto(out[tuple(sl)], _along(grid, axis, n - 2, n - 1))


def _lift(grid: np.ndarray, axis: int) -> None:
    """Add back to every odd sample along ``axis`` its prediction."""
    odd = _along(grid, axis, 1, grid.shape[axis])
    pred = np.empty_like(odd)
    _predict(grid, axis, pred)
    np.add(odd, pred, out=odd)


def _reconstruct(buf: np.ndarray, levels: int) -> None:
    """Turn the dequantized details in ``buf`` back into samples, in
    place, coarsest split first."""
    for _level, axis, grid, _odd in reversed(list(_splits(buf.ndim,
                                                          levels))):
        _lift(buf[grid], axis)


def _encode(buf: np.ndarray, levels: int, bounds: list[float],
            codes: np.ndarray, pred: np.ndarray, scratch: np.ndarray,
            span: float) -> None:
    """Closed-loop multilevel encoding of the float64 ``buf``, in place.

    Quantizes the coarse grid, then every split coarsest first: the odd
    samples' details are taken against a prediction from *reconstructed*
    evens, and each quantized detail is written back as the decoder will
    rebuild it.  So every sample's error is its own quantizer's alone,
    and on return ``buf`` equals :func:`decompress`'s output bit for bit.

    ``codes`` (flat, ``buf.size``) receives the codes finest split first
    and the coarse grid's Lorenzo residuals last.  ``pred`` and
    ``scratch`` (flat float64) hold at least the first split's details.
    ``span`` bounds every detail's magnitude (:func:`_detail_span`).
    """
    coarse = buf[_coarse(buf.ndim, levels)]
    coarse_codes = quantize_uniform(coarse, bounds[-1])
    end = buf.size - coarse.size
    codes[end:] = lorenzo_encode(coarse_codes).reshape(-1)
    if not levels:
        return
    dequantize_uniform(coarse_codes, bounds[-1], out=coarse)
    for lvl, axis, grid, odd in reversed(list(_splits(buf.ndim, levels))):
        samples = buf[odd]
        n = samples.size
        end -= n
        p = pred[:n].reshape(samples.shape)
        _predict(buf[grid], axis, p)
        detail = np.subtract(samples, p, out=scratch[:n].reshape(
            samples.shape))
        # the quantizer leaves its rounded codes in ``detail``, so the
        # write-back is the decoder's dequantize and lift on them
        quantize_uniform(detail, bounds[lvl],
                         out=codes[end:end + n].reshape(samples.shape),
                         scratch=detail, peak=span / (2.0 * bounds[lvl]))
        detail *= 2.0 * bounds[lvl]
        np.add(detail, p, out=samples)


# ----------------------------------------------------------------------
# public pipeline
# ----------------------------------------------------------------------
def _level_bounds(tol: float, levels: int, s: float, ndim: int,
                  magic: bytes = _MAGIC) -> list[float]:
    """Per-level quantizer bounds, finest level first, coarse grid last.

    ``MGD2`` (closed loop): a sample's error is its own quantizer's, so
    every level takes the full ``tol`` for s=0; otherwise the geometric
    weights ``2**(s*level)`` are scaled so the largest is ``tol`` (their
    exponents are taken relative to the largest, so none overflows).
    The L-infinity bound holds for every ``s``.

    ``MGD1`` (open loop, decode only): each of a level's ``ndim`` splits
    adds its detail error to the reconstruction, so the shares sum to
    ``tol`` — uniform for s=0, geometric otherwise — and a level's share
    is divided by ``ndim``; the coarse grid takes the final undivided
    share.
    """
    n_shares = levels + 1
    if magic == _MAGIC:
        top = max(0.0, s * levels)
        return [tol * 2.0 ** (s * lvl - top) for lvl in range(n_shares)]
    if s == 0.0:
        weights = np.full(n_shares, tol / n_shares)
    else:
        weights = np.array([2.0 ** (s * l) for l in range(n_shares)])
        weights = tol * weights / weights.sum()
    bounds = list(weights[:-1] / ndim) + [float(weights[-1])]
    return [float(b) for b in bounds]


def _detail_span(lo: float, hi: float, bounds: list[float]) -> float:
    """A bound on every detail's magnitude, from the data's extremes.

    A detail is a sample minus the mean of reconstructed samples, each
    within its level's bound of an original one, so it lies within the
    value span plus the largest bound, give or take a few roundings of
    the magnitude.  NaN or infinite extremes give a NaN or infinite
    span, which fails every check made with it.
    """
    mag = max(-lo, hi)
    return hi - lo + mag * 2.0**-40 + max(bounds)


def _int32_codes_fit(lo: float, hi: float, ndim: int,
                     bounds: list[float]) -> bool:
    """Whether every code :func:`compress_stage1` emits fits int32.

    Decided before quantizing, from the data's extremes ``lo`` and
    ``hi``: details lie within :func:`_detail_span`; the coarse grid's
    samples lie within the magnitude, and its Lorenzo residuals sum
    ``2**ndim`` codes.  NaN or infinite extremes fail
    :func:`int32_fits`, so such input keeps int64 (and fails in the
    quantizer, as before).
    """
    span = _detail_span(lo, hi, bounds)
    details_fit = all(int32_fits(span / (2.0 * b), 1) for b in bounds[:-1])
    return details_fit and int32_fits(max(-lo, hi) / (2.0 * bounds[-1]),
                                      2**ndim)


def _quantizer_tol(tol: float, dtype: np.dtype, peak: float) -> float:
    """The tolerance the quantizers spend on data of ``dtype`` whose
    largest magnitude is ``peak``, so that the output stays within
    ``tol``.

    A reconstructed sample lies within its quantizer's bound of the
    original up to four float64 roundings (detail, scale, dequantize,
    add back), none of a value beyond twice ``peak + tol``; those take
    ``4 * eps * (peak + tol)``.  The decoder then casts the float64
    reconstruction to ``dtype``.  A narrower float's cast moves a value
    by at most its own ``eps * (peak + tol)``.  Integer data keeps its
    error within ``floor(tol)`` while the reconstruction stays short of
    ``floor(tol) + 1/2``.  When what is held back is over half of
    ``tol``, the bound is at the data's own resolution and ``tol / 2``
    is spent instead.  The stream records this tolerance, so decoding
    needs nothing else.
    """
    if dtype.kind in "iu":
        tol = min(tol, math.floor(tol) + 0.5 - 2.0**-10)
    slack = 4.0 * _EPS * (peak + tol)
    if dtype.kind == "f" and dtype.itemsize < 8:
        slack += float(np.finfo(dtype).eps) * (peak + tol)
    return tol - slack if tol > 2.0 * slack else tol / 2.0


def compress_stage1(data: np.ndarray, tol: float, s: float = 0.0,
                    backend: str = "zlib", level: int = 1) -> dict:
    """Numpy-heavy first half: encode closed-loop in place on one pooled
    copy of the input, straight into one pooled code buffer.

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
    lo, hi = float(arr.min()), float(arr.max())
    tol = _quantizer_tol(float(tol), arr.dtype, max(-lo, hi))
    bounds = _level_bounds(tol, levels, float(s), arr.ndim)
    code_dtype = (np.int32 if _int32_codes_fit(lo, hi, arr.ndim, bounds)
                  else np.int64)
    # predictions and details pass through two contiguous scratch
    # buffers, as large as the first (largest) split's details.  The
    # predictions' is freed on return: a pooled one would stay resident
    # between calls and raise the process's peak RSS by its size.
    pred = np.empty((arr.size // 2,), np.float64)
    buf = _pool.acquire(arr.shape, np.float64)
    scratch = _pool.acquire((buf.size // 2,), np.float64)
    allcodes = _pool.acquire((buf.size,), code_dtype)
    try:
        with _trace.stage("mgard:decompose", levels=levels):
            np.copyto(buf, arr)
            _encode(buf, levels, bounds, allcodes, pred, scratch,
                    _detail_span(lo, hi, bounds))
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
    """Decompress an MGARD stream (``MGD2``, or the older ``MGD1``)."""
    magic = _MAGIC_OPEN if bytes(stream[:4]) == _MAGIC_OPEN else _MAGIC
    dtype, dims, doubles, ints, pos = read_header(stream, magic,
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
    try:
        bounds = _level_bounds(tol, levels, s, len(dims), magic)
    except OverflowError:
        bounds = [math.inf]
    if not all(0.0 < b < math.inf for b in bounds):
        raise CorruptStreamError(
            f"stream declares s = {s}, which leaves a level no usable bound")
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
