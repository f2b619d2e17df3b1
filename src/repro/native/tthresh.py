"""tthresh-style compressor: truncated higher-order SVD.

From the paper's plugin glossary: "a compressor that uses the principles
of singular value decomposition to compress data".  Like real tthresh
(Ballester-Ripoll et al.), data is treated as a tensor, decomposed with
a Tucker/HOSVD factorization, and compressed by truncating factor ranks
to meet a *relative L2* (not pointwise) error target, then quantizing
what remains.

Pipeline:

1. successive matricizations: SVD along each mode, keep the smallest
   rank whose discarded tail energy fits the per-mode share of the
   target;
2. the core tensor and factor matrices are quantized (uniform, step
   sized from the same budget) and entropy coded with the shared
   residual codec;
3. reconstruction multiplies the factors back.

Error semantics: ``tolerance`` bounds the relative Frobenius error
``||x - x'||_F / ||x||_F`` (the SVD-native norm), *not* the pointwise
maximum — matching real tthresh, and providing the library's example of
a compressor whose bound type differs from the abs/rel family.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.dtype import dtype_from_numpy, dtype_to_numpy
from ..core.status import CorruptStreamError, InvalidDimensionsError
from ..encoders.headers import read_header, write_header
from ..encoders.quantize import dequantize_uniform, quantize_uniform
from ..encoders.residual import decode_residuals, encode_residuals

__all__ = ["compress", "decompress"]

_MAGIC = b"TTH1"


def _mode_unfold(tensor: np.ndarray, mode: int) -> np.ndarray:
    """Mode-n matricization: (I_n, prod of other dims)."""
    return np.moveaxis(tensor, mode, 0).reshape(tensor.shape[mode], -1)


def _mode_fold(matrix: np.ndarray, mode: int, shape: tuple[int, ...]
               ) -> np.ndarray:
    full = (shape[mode],) + tuple(s for i, s in enumerate(shape)
                                  if i != mode)
    return np.moveaxis(matrix.reshape(full), 0, mode)


def _hosvd_truncate(tensor: np.ndarray, tolerance: float
                    ) -> tuple[np.ndarray, list[np.ndarray]]:
    """Sequentially-truncated HOSVD with a shared tail-energy budget.

    Discarded energy per mode is at most ``(0.9*tolerance)^2 / ndim`` of
    the total, reserving the remaining squared budget for the
    quantization stage.
    """
    total_energy = float(np.sum(tensor * tensor))
    if total_energy == 0.0:
        return tensor.copy(), [np.eye(s) for s in tensor.shape]
    budget = (0.9 * tolerance) ** 2 * total_energy / tensor.ndim
    core = tensor.astype(np.float64, copy=True)
    factors: list[np.ndarray] = []
    for mode in range(tensor.ndim):
        unfolded = _mode_unfold(core, mode)
        u, s, _vt = np.linalg.svd(unfolded, full_matrices=False)
        # smallest rank whose discarded tail energy fits the mode budget
        tail = np.concatenate((np.cumsum((s * s)[::-1])[::-1][1:], [0.0]))
        keep = int(np.argmax(tail <= budget)) + 1
        factors.append(u[:, :keep])
        core = _mode_fold(
            u[:, :keep].T @ unfolded, mode,
            core.shape[:mode] + (keep,) + core.shape[mode + 1:])
    return core, factors


def _reconstruct(core: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
    out = core
    for mode, factor in enumerate(factors):
        unfolded = _mode_unfold(out, mode)
        folded_shape = (out.shape[:mode] + (factor.shape[0],)
                        + out.shape[mode + 1:])
        out = _mode_fold(factor @ unfolded, mode, folded_shape)
    return out


def compress(data: np.ndarray, tolerance: float,
             backend: str = "zlib", level: int = 1) -> bytes:
    """Compress with a relative-L2 (Frobenius) error target."""
    arr = np.asarray(data)
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if arr.ndim < 1 or arr.ndim > 4:
        raise InvalidDimensionsError(
            f"tthresh supports 1-4 dimensions, got {arr.ndim}")
    if arr.dtype.kind not in "fiu":
        raise TypeError(f"tthresh cannot compress dtype {arr.dtype}")
    dtype = dtype_from_numpy(arr.dtype)
    work = arr.astype(np.float64, copy=False)
    core, factors = _hosvd_truncate(work, tolerance)

    # quantization: rank truncation consumes (0.9*tol)^2 of the budget;
    # quantize each piece finely enough (scale * tol / 256) that its
    # contribution stays well inside the remainder while the entropy
    # stage still profits from the reduced precision
    pieces = [core.reshape(-1)] + [f.reshape(-1) for f in factors]
    blobs = []
    steps = []
    for piece in pieces:
        scale = float(np.abs(piece).max()) if piece.size else 0.0
        eb = scale * tolerance / 256.0 if scale > 0.0 else 1.0
        codes = quantize_uniform(piece, eb)
        blobs.append(encode_residuals(codes, backend=backend, level=level))
        steps.append(eb)

    ranks = [f.shape[1] for f in factors]
    header = write_header(
        _MAGIC, dtype, arr.shape,
        doubles=(float(tolerance),) + tuple(steps),
        ints=tuple(ranks) + tuple(len(b) for b in blobs))
    return header + b"".join(blobs)


def decompress(stream: bytes | memoryview,
               expected_dims: tuple[int, ...] | None = None) -> np.ndarray:
    """Reconstruct from the truncated factorization."""
    dtype, dims, doubles, ints, pos = read_header(stream, _MAGIC,
                                                  expected_dims)
    ndim = len(dims)
    steps = doubles[1:]
    ranks = list(ints[:ndim])
    blob_lens = list(ints[ndim:])
    if len(blob_lens) != ndim + 1 or len(steps) != ndim + 1:
        raise CorruptStreamError("tthresh header is inconsistent")
    view = memoryview(stream)
    counts = [math.prod(ranks)] + [dims[m] * ranks[m] for m in range(ndim)]
    pieces = []
    for length, eb, count in zip(blob_lens, steps, counts):
        codes = decode_residuals(view[pos:pos + length], count=count)
        pieces.append(dequantize_uniform(codes, eb))
        pos += length
    core_shape = tuple(ranks)
    core = pieces[0].reshape(core_shape)
    factors = [pieces[1 + mode].reshape(dims[mode], ranks[mode])
               for mode in range(ndim)]
    out = _reconstruct(core, factors)
    np_dtype = dtype_to_numpy(dtype)
    if np_dtype.kind in "iu":
        return np.rint(out, out=out).astype(np_dtype)
    return out.astype(np_dtype, copy=False)
