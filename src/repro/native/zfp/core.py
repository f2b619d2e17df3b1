"""The ZFP-family transform compression pipeline.

Like real zfp, data is processed in 4^d blocks (d = 1..4), each block is
decorrelated with an exactly-invertible integer lifting transform, and
precision is controlled by discarding low-order bits of the transform
coefficients.  Differences from the C library are documented in
DESIGN.md; the behaviourally load-bearing properties are preserved:

* 4^d blocking with edge-replication padding of partial blocks (the
  padding inefficiency for dims < 4 the paper calls out);
* an integer decorrelating transform (two-level Haar lifting here vs
  zfp's non-orthogonal lift; both are exact on integers);
* fixed-accuracy / fixed-precision / fixed-rate / reversible modes with
  the same error semantics (absolute bound, per-block relative planes,
  approximate bits-per-value, bit-exact respectively).

All block math is vectorized across every block simultaneously; the
stream stores the coefficients block-major, ``(nblocks, 4, ..., 4)``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ...core.dtype import dtype_from_numpy, dtype_to_numpy
from ...trace import runtime as _trace
from ...core.status import CorruptStreamError, InvalidDimensionsError
from ...encoders.headers import read_header, write_header
from ...encoders.predictors import lorenzo_decode, lorenzo_encode
from ...encoders.residual import (_inflate_at_most, decode_residuals,
                                  encode_residuals)
from ...encoders.quantize import int32_fits, quantize_uniform
from .. import pool as _pool

__all__ = ["compress", "compress_stage1", "compress_stage2", "decompress",
           "MODE_ACCURACY", "MODE_PRECISION", "MODE_RATE",
           "MODE_REVERSIBLE", "BLOCK_SIDE"]

_MAGIC = b"ZFP1"
BLOCK_SIDE = 4

MODE_ACCURACY = 0
MODE_PRECISION = 1
MODE_RATE = 2
MODE_REVERSIBLE = 3

# integer headroom: |codes| <= 2**_Q before the transform, whose lifting
# steps grow magnitudes by at most 2 per level (4 per dimension)
_Q = 48


# ----------------------------------------------------------------------
# blocking
# ----------------------------------------------------------------------
def _pad_to_blocks(arr: np.ndarray) -> np.ndarray:
    pad = [(0, (-s) % BLOCK_SIDE) for s in arr.shape]
    if any(p[1] for p in pad):
        return np.pad(arr, pad, mode="edge")
    return arr


def _grid(dims: tuple[int, ...]) -> tuple[int, ...]:
    """Blocks along each axis, counting a partial block as one."""
    return tuple((s + BLOCK_SIDE - 1) // BLOCK_SIDE for s in dims)


def _coefficient_shape(d: int, nblocks: int) -> tuple[int, ...]:
    """The lifting layout: coefficient-major ``(4,)*d + (nblocks,)``."""
    return (BLOCK_SIDE,) * d + (nblocks,)


def _gather(codes: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(d1..dk) codes -> ``out`` in the lifting layout, edge-padded."""
    d = codes.ndim
    padded = _pad_to_blocks(codes)
    inter = []
    for s in padded.shape:
        inter += [s // BLOCK_SIDE, BLOCK_SIDE]
    # in-block axes first, then the block grid
    order = list(range(1, 2 * d, 2)) + list(range(0, 2 * d, 2))
    view = padded.reshape(inter).transpose(order)
    np.copyto(out.reshape(view.shape), view)
    return out


def _exchange(coef: np.ndarray, blocks: np.ndarray,
              to_blocks: bool) -> None:
    """Copy between coefficient-major ``coef`` and block-major
    ``blocks`` (the stream's order), casting to the destination width.

    Either direction is a transpose of a ``(4**d, nblocks)`` matrix, so
    a plain ``np.copyto`` walks one side a whole row apart per element.
    Tiles of 16 x 1024 keep both sides in cache: on nyx 128^3 the copy
    to block-major fell from 16 to 6 ms, and back from 23 to 6 ms.
    """
    nblocks = blocks.shape[0]
    rows = BLOCK_SIDE**(blocks.ndim - 1)
    c = coef.reshape(rows, nblocks)
    b = blocks.reshape(nblocks, rows).T
    dst, src = (b, c) if to_blocks else (c, b)
    for j in range(0, nblocks, 1024):
        for i in range(0, rows, 16):
            np.copyto(dst[i:i + 16, j:j + 1024], src[i:i + 16, j:j + 1024],
                      casting="unsafe")


def _dequantize_into(coef: np.ndarray, scale: float,
                     out: np.ndarray) -> np.ndarray:
    """``out[x] = coef at x * scale``: un-block, crop and dequantize.

    ``coef`` is in the lifting layout.  ``out`` (the cropped dims) is
    cut into at most 2**d regions of whole blocks and of the partial
    last block along each axis; each is one ``np.multiply`` from a
    strided view of ``coef`` into a split-axis view of ``out``, with
    the product in float64 as :func:`dequantize_uniform` computes it.
    """
    dims = out.shape
    d = len(dims)
    grid = _grid(dims)
    c = coef.reshape((BLOCK_SIDE,) * d + grid)
    order = [a for k in range(d) for a in (d + k, k)]
    parts = []
    for s in dims:
        full, rem = divmod(s, BLOCK_SIDE)
        # (first block, blocks, values per block) along this axis
        parts.append([p for p in ((0, full, BLOCK_SIDE), (full, 1, rem))
                      if p[1] and p[2]])
    for region in itertools.product(*parts):
        src = c[tuple(slice(0, w) for _, _, w in region)
                + tuple(slice(b, b + g) for b, g, _ in region)]
        dst = out[tuple(slice(BLOCK_SIDE * b, BLOCK_SIDE * b + g * w)
                        for b, g, w in region)]
        dst = as_strided(
            dst, shape=[n for _, g, w in region for n in (g, w)],
            strides=[t for st in dst.strides
                     for t in (BLOCK_SIDE * st, st)])
        np.multiply(src.transpose(order), scale, out=dst, dtype=np.float64)
    return out


# ----------------------------------------------------------------------
# the lifting transform (exactly invertible on int32 and int64)
# ----------------------------------------------------------------------
# Layout.  The coefficients sit coefficient-major, shape
# (4,)*d + (nblocks,): slot i of every block along one axis is a single
# slice whose innermost run is all nblocks values, so each of the nine
# ufuncs of a lifting step streams through long contiguous runs.  (The
# block-major (nblocks, 4, ..., 4) layout the stream stores makes every
# lifting slice a stride-4 gather.)  The lift gathers straight from the
# padded codes into that layout and copies to block-major once for the
# residual coder.
#
# Width.  Codes are int32 whenever quantize_uniform's peak proves every
# intermediate fits, int32_fits(peak, 4**d), that is (peak + 1) * 4**d
# < 2**31, and int64 otherwise (tight bounds, precision and rate
# modes).  Decompress gates the decoded coefficients' peak the same way.
# The two directions grow differently.  Per axis, the forward lift maps
# a bound B to 2B (each smooth value lies between its inputs, each
# detail is a difference of two).  The inverse maps B to 2B + 1: each
# output, e.g. b = ss - (dd >> 1) + (d1 - (d1 >> 1)), sums terms of at
# most B, ceil(B / 2) and ceil(B / 2).  So over d axes neither exceeds
# 2**d * (peak + 1), and the gate leaves a 2**d margin on both sides.
#
# Every lifting intermediate is written into one of five pooled slice-
# shaped temporaries via ufunc out=, so a whole transform allocates
# nothing: the four coefficient slots are only assigned after all four
# input slices have been consumed.  (A pair-sliced variant with fewer
# ufunc calls was measured ~2x slower: ufunc out= into step-2 strided
# views costs more than the calls it saves.)

def _lift_temps(coef: np.ndarray) -> list[np.ndarray]:
    # the slice along any in-block axis has the same shape
    shape = coef.shape[1:]
    return [_pool.acquire(shape, coef.dtype) for _ in range(5)]


def _fwd_lift_axis(blocks: np.ndarray, axis: int,
                   temps: list[np.ndarray]) -> None:
    """Two-level Haar lifting along a length-4 axis, in place."""
    ix = [slice(None)] * blocks.ndim

    def pick(i: int) -> tuple:
        ix[axis] = i
        return tuple(ix)

    t1, t2, t3, t4, t5 = temps
    a = blocks[pick(0)]
    b = blocks[pick(1)]
    c = blocks[pick(2)]
    d = blocks[pick(3)]
    np.subtract(b, a, out=t1)          # d1
    np.right_shift(t1, 1, out=t2)
    np.add(a, t2, out=t2)              # s1
    np.subtract(d, c, out=t3)          # d2
    np.right_shift(t3, 1, out=t4)
    np.add(c, t4, out=t4)              # s2
    np.subtract(t4, t2, out=t4)        # dd
    np.right_shift(t4, 1, out=t5)
    np.add(t2, t5, out=t5)             # ss
    blocks[pick(0)] = t5   # smooth
    blocks[pick(1)] = t4   # level-2 detail
    blocks[pick(2)] = t1   # level-1 details
    blocks[pick(3)] = t3


def _inv_lift_axis(blocks: np.ndarray, axis: int,
                   temps: list[np.ndarray]) -> None:
    """Exact inverse of :func:`_fwd_lift_axis`, in place."""
    ix = [slice(None)] * blocks.ndim

    def pick(i: int) -> tuple:
        ix[axis] = i
        return tuple(ix)

    t1, t2, t3, t4, t5 = temps
    ss = blocks[pick(0)]
    dd = blocks[pick(1)]
    d1 = blocks[pick(2)]
    d2 = blocks[pick(3)]
    np.right_shift(dd, 1, out=t1)
    np.subtract(ss, t1, out=t1)        # s1
    np.add(t1, dd, out=t2)             # s2
    np.right_shift(d1, 1, out=t3)
    np.subtract(t1, t3, out=t3)        # a
    np.add(t3, d1, out=t4)             # b
    np.right_shift(d2, 1, out=t5)
    np.subtract(t2, t5, out=t5)        # c
    np.add(t5, d2, out=t2)             # d
    blocks[pick(0)] = t3
    blocks[pick(1)] = t4
    blocks[pick(2)] = t5
    blocks[pick(3)] = t2


def _fwd_lift(coef: np.ndarray, d: int) -> None:
    """Forward transform of lifting-layout ``coef``, in place."""
    temps = _lift_temps(coef)
    try:
        for axis in range(d):
            _fwd_lift_axis(coef, axis, temps)
    finally:
        _pool.release(*temps)


def _inv_lift(coef: np.ndarray, d: int) -> None:
    """Exact inverse of :func:`_fwd_lift`, in place."""
    temps = _lift_temps(coef)
    try:
        for axis in reversed(range(d)):
            _inv_lift_axis(coef, axis, temps)
    finally:
        _pool.release(*temps)


# ----------------------------------------------------------------------
# per-block bit management
# ----------------------------------------------------------------------
def _block_maxbits(blocks: np.ndarray) -> np.ndarray:
    """Bit length of the largest |coefficient| in each block.

    The exponent ``frexp`` returns is exact for magnitudes below 2**53,
    which holds every coefficient it is asked about (precision and rate
    codes stay within 2**_Q, and a 4-D transform grows them by at most
    2**4); 0 maps to 0.
    """
    flat = blocks.reshape(blocks.shape[0], -1)
    mags = np.abs(flat).max(axis=1)
    return np.frexp(mags.astype(np.float64))[1].astype(np.int64)


def _rounding_rshift(blocks: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Per-block arithmetic right shift with round-half-up, in place."""
    s = shifts.reshape((-1,) + (1,) * (blocks.ndim - 1)).astype(np.int64)
    half = np.where(s > 0, np.int64(1) << np.maximum(s - 1, 0), np.int64(0))
    np.add(blocks, half, out=blocks)
    np.right_shift(blocks, s, out=blocks)
    return blocks


def _lshift(blocks: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Per-block left shift, in place."""
    s = shifts.reshape((-1,) + (1,) * (blocks.ndim - 1)).astype(np.int64)
    np.left_shift(blocks, s, out=blocks)
    return blocks


# ----------------------------------------------------------------------
# public pipeline
# ----------------------------------------------------------------------
def compress_stage1(data: np.ndarray, mode: int, parameter: float,
                    backend: str = "zlib", level: int = 1,
                    transform: bool = True) -> dict:
    """Numpy-heavy first half: quantize, block, transform, bitplane.

    Returns an opaque state for :func:`compress_stage2`; see the SZ core
    for why the split exists.  The state may alias pooled buffers, so it
    must be passed to stage 2 exactly once.
    """
    arr = np.asarray(data)
    if arr.ndim < 1 or arr.ndim > 4:
        raise InvalidDimensionsError(
            f"zfp supports 1-4 dimensions, got {arr.ndim}"
        )
    if arr.dtype.kind not in "fiu":
        raise TypeError(f"zfp cannot compress dtype {arr.dtype}")
    dtype = dtype_from_numpy(arr.dtype)
    if mode == MODE_REVERSIBLE:
        if arr.dtype.kind == "f":
            codes = _float_to_ordered_int(arr).reshape(arr.shape)
        else:
            codes = arr.astype(np.int64)
        residuals = lorenzo_encode(codes)
        return {"kind": "reversible", "residuals": residuals,
                "dtype": dtype, "shape": arr.shape,
                "backend": backend, "level": level}

    values = arr.astype(np.float64, copy=False)
    d = arr.ndim
    nblocks = int(np.prod(_grid(arr.shape), dtype=np.int64))
    fan_in = BLOCK_SIDE**d if transform else 1
    with _trace.stage("zfp:quantize", mode=mode):
        pooled = _pool.acquire(values.shape, np.int64)
        scratch = _pool.acquire(values.shape, np.float64)
        try:
            if mode == MODE_ACCURACY:
                if parameter <= 0:
                    raise ValueError("accuracy tolerance must be positive")
                step = float(parameter)
                codes = quantize_uniform(values, step, out=pooled,
                                         scratch=scratch, fan_in=fan_in)
            elif mode in (MODE_PRECISION, MODE_RATE):
                vmax = float(np.abs(values).max()) if values.size else 0.0
                if vmax == 0.0:
                    step = 1.0
                    pooled[...] = 0
                    codes = pooled
                else:
                    # scale so |codes| <= 2**_Q; quantize_uniform uses
                    # bin 2*eb
                    step = vmax / float(2**_Q)
                    codes = quantize_uniform(values, step, out=pooled,
                                             scratch=scratch, fan_in=fan_in)
            else:
                raise ValueError(f"unknown zfp mode {mode}")
        except BaseException:
            _pool.release(pooled, scratch)
            raise
        _pool.release(scratch)

    with _trace.stage("zfp:transform"):
        try:
            coef = _pool.acquire(_coefficient_shape(d, nblocks), codes.dtype)
            try:
                _gather(codes, coef)
            except BaseException:
                _pool.release(coef)
                raise
        finally:
            _pool.release(pooled)
        try:
            if transform:
                _fwd_lift(coef, d)
        except BaseException:
            _pool.release(coef)
            raise
        # the residual coder takes the stream's block-major order
        try:
            blocks = _pool.acquire((nblocks,) + (BLOCK_SIDE,) * d,
                                   coef.dtype)
            try:
                _exchange(coef, blocks, to_blocks=True)
            except BaseException:
                _pool.release(blocks)
                raise
        finally:
            _pool.release(coef)

    with _trace.stage("zfp:bitplane"):
        try:
            if mode == MODE_ACCURACY:
                # nothing is discarded: skip the whole shift/round pass
                shifts = np.zeros(blocks.shape[0], dtype=np.int64)
                kept = blocks
            else:
                if mode == MODE_PRECISION:
                    planes = int(parameter)
                    if planes < 1:
                        raise ValueError(
                            "precision must be at least 1 bit plane")
                    shifts = np.maximum(_block_maxbits(blocks) - planes, 0)
                else:  # MODE_RATE
                    width = int(round(parameter))
                    if width < 1:
                        raise ValueError(
                            "rate must be at least 1 bit per value")
                    shifts = np.maximum(_block_maxbits(blocks) - width, 0)
                kept = _rounding_rshift(blocks, shifts)
        except BaseException:
            _pool.release(blocks)
            raise
    return {"kind": "lossy", "kept": kept, "shifts": shifts,
            "step": step, "parameter": parameter, "mode": mode,
            "transform": transform, "dtype": dtype, "shape": arr.shape,
            "backend": backend, "level": level}


def compress_stage2(state: dict) -> bytes:
    """Entropy-code and frame the output of :func:`compress_stage1`."""
    backend = state["backend"]
    level = state["level"]
    if state["kind"] == "reversible":
        payload = encode_residuals(state["residuals"].reshape(-1),
                                   backend=backend, level=level)
        return write_header(_MAGIC, state["dtype"], state["shape"],
                            doubles=(0.0, 0.0),
                            ints=(MODE_REVERSIBLE,)) + payload
    import zlib as _zlib

    with _trace.stage("zfp:entropy", backend=backend):
        kept = state["kept"]
        try:
            shift_blob = _zlib.compress(
                state["shifts"].astype(np.uint8).tobytes(), 1)
            payload = encode_residuals(kept.reshape(-1), backend=backend,
                                       level=level)
        finally:
            _pool.release(kept)
    header = write_header(
        _MAGIC, state["dtype"], state["shape"],
        doubles=(state["step"], float(state["parameter"])),
        ints=(state["mode"], len(shift_blob),
              1 if state["transform"] else 0),
    )
    return header + shift_blob + payload


def compress(data: np.ndarray, mode: int, parameter: float,
             backend: str = "zlib", level: int = 1,
             transform: bool = True) -> bytes:
    """Compress ``data`` (C-order ndarray, 1-4 dims) under ``mode``.

    ``parameter`` is the tolerance (accuracy), bit planes (precision), or
    bits per value (rate); ignored for reversible.  ``transform=False``
    skips the decorrelating transform (quantize-only ablation).
    """
    return compress_stage2(compress_stage1(
        data, mode, parameter, backend=backend, level=level,
        transform=transform))


def decompress(stream: bytes | memoryview,
               expected_dims: tuple[int, ...] | None = None) -> np.ndarray:
    """Decompress a zfp stream back to an ndarray."""
    dtype, dims, doubles, ints, pos = read_header(stream, _MAGIC,
                                                  expected_dims)
    view = memoryview(stream)
    mode = ints[0]
    np_dtype = dtype_to_numpy(dtype)
    if mode == MODE_REVERSIBLE:
        return _decompress_reversible(view[pos:], dims, np_dtype)

    step = doubles[0]
    shift_len = ints[1]
    transform = bool(ints[2]) if len(ints) > 2 else True
    d = len(dims)
    nblocks = math.prod(_grid(dims))
    with _trace.stage("zfp:entropy"):
        try:
            table = _inflate_at_most("zlib", view[pos:pos + shift_len],
                                     nblocks)
        except ValueError as e:
            raise CorruptStreamError(f"zfp shift table: {e}") from None
        if len(table) != nblocks:
            raise CorruptStreamError("shift table does not match block count")
        shifts = np.frombuffer(table, dtype=np.uint8).astype(np.int64)
        kept = decode_residuals(view[pos + shift_len:],
                                count=nblocks * BLOCK_SIDE**d)
    with _trace.stage("zfp:transform"):
        # the coefficient buffer came off the entropy decoder, so the
        # shift can run on it in place
        blocks = kept.reshape((nblocks,) + (BLOCK_SIDE,) * d)
        if np.any(shifts):
            blocks = _lshift(blocks, shifts)
        peak = max(-int(kept.min()), int(kept.max())) if kept.size else 0
        fan_in = BLOCK_SIDE**d if transform else 1
        width = np.int32 if int32_fits(peak, fan_in) else np.int64
        coef = _pool.acquire(_coefficient_shape(d, nblocks), width)
        try:
            _exchange(coef, blocks, to_blocks=False)
            if transform:
                _inv_lift(coef, d)
        except BaseException:
            _pool.release(coef)
            raise
    with _trace.stage("zfp:dequantize"):
        try:
            real = np.float64 if np_dtype.kind in "iu" else np_dtype
            out = _dequantize_into(coef, 2.0 * step,
                                   np.empty(dims, dtype=real))
        finally:
            _pool.release(coef)
    if np_dtype.kind in "iu":
        return np.rint(out, out=out).astype(np_dtype)
    return out


# ----------------------------------------------------------------------
# reversible mode: bit-exact round trip via integerized floats + Lorenzo
# ----------------------------------------------------------------------
def _float_to_ordered_int(arr: np.ndarray) -> np.ndarray:
    """Bit-cast floats to sign-magnitude-ordered int64 (monotonic map)."""
    if arr.dtype == np.float32:
        u = np.ascontiguousarray(arr).view(np.uint32).astype(np.uint64)
        sign = (u >> np.uint64(31)) != 0
        flipped = np.where(sign, np.uint64(0xFFFFFFFF) - u, u | np.uint64(0x80000000))
        return flipped.view(np.int64) - np.int64(2**31)
    u = np.ascontiguousarray(arr.astype(np.float64)).view(np.uint64)
    sign = (u >> np.uint64(63)) != 0
    flipped = np.where(sign, ~u, u | np.uint64(1) << np.uint64(63))
    return flipped.view(np.int64)


def _ordered_int_to_float(codes: np.ndarray, np_dtype: np.dtype) -> np.ndarray:
    if np_dtype == np.float32:
        u = (codes + np.int64(2**31)).view(np.uint64)
        sign = (u & np.uint64(0x80000000)) == 0
        back = np.where(sign, np.uint64(0xFFFFFFFF) - u, u & np.uint64(0x7FFFFFFF))
        return back.astype(np.uint32).view(np.float32)
    u = codes.view(np.uint64)
    sign = (u >> np.uint64(63)) == 0
    back = np.where(sign, ~u, u & ~(np.uint64(1) << np.uint64(63)))
    return back.view(np.float64).astype(np_dtype)


def _decompress_reversible(payload: memoryview, dims: tuple[int, ...],
                           np_dtype: np.dtype) -> np.ndarray:
    residuals = decode_residuals(payload, count=math.prod(dims)).reshape(dims)
    codes = lorenzo_decode(residuals, clobber=True)
    if np_dtype.kind == "f":
        return _ordered_int_to_float(codes.reshape(-1), np_dtype).reshape(dims)
    return codes.astype(np_dtype, copy=False)
