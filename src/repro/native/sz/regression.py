"""SZ 2.x's block regression predictor (and adaptive selection).

Real SZ 2 (the paper's reference [25] improves on it) predicts each
6^d block either with the Lorenzo predictor or with a per-block linear
regression ``a0 + a1*i + a2*j + a3*k``, choosing per block whichever
predicts better — the ``withRegression`` knob in ``sz_params``.

This module implements that scheme fully vectorized:

* blocks are gathered exactly like the zfp blocker but with side 6 and
  edge padding;
* one least-squares solve serves *all* blocks simultaneously: the
  design matrix ``X`` (block-local normalized coordinates) is shared,
  so coefficients are ``pinv(X) @ values`` — a single matmul;
* coefficients are quantized **first**, and residuals are computed
  against the *quantized* prediction, so the reconstruction error is
  bounded purely by the residual quantizer regardless of coefficient
  coarseness;
* adaptive mode scores each block by the total magnitude of its
  quantized residual codes under both predictors and keeps the winner
  (a per-block selector bitmap travels in the stream).

Determinism note: predictions are recomputed at decode time with the
same matmul, which is bit-reproducible on a given platform; streams are
not guaranteed portable across BLAS implementations (real SZ's
regression streams carry the same caveat for FMA differences).
"""

from __future__ import annotations

import math

import numpy as np

from ...core.status import CorruptStreamError
from ...encoders.quantize import quantize_uniform
from ...encoders.residual import decode_residuals, encode_residuals

__all__ = ["compress_regression", "decompress_regression", "BLOCK_SIDE"]

BLOCK_SIDE = 6


# ----------------------------------------------------------------------
# blocking (side-6 analog of the zfp blocker)
# ----------------------------------------------------------------------
def _pad(arr: np.ndarray) -> np.ndarray:
    padding = [(0, (-s) % BLOCK_SIDE) for s in arr.shape]
    if any(p[1] for p in padding):
        return np.pad(arr, padding, mode="edge")
    return arr


def _to_blocks(arr: np.ndarray) -> np.ndarray:
    d = arr.ndim
    padded = _pad(arr)
    inter: list[int] = []
    for s in padded.shape:
        inter += [s // BLOCK_SIDE, BLOCK_SIDE]
    view = padded.reshape(inter)
    order = list(range(0, 2 * d, 2)) + list(range(1, 2 * d, 2))
    return np.ascontiguousarray(view.transpose(order)).reshape(
        -1, BLOCK_SIDE**d)


def _from_blocks(blocks: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    d = len(dims)
    padded_dims = tuple(s + ((-s) % BLOCK_SIDE) for s in dims)
    grid = tuple(s // BLOCK_SIDE for s in padded_dims)
    inter = blocks.reshape(grid + (BLOCK_SIDE,) * d)
    order: list[int] = []
    for i in range(d):
        order += [i, d + i]
    padded = inter.transpose(order).reshape(padded_dims)
    return padded[tuple(slice(0, s) for s in dims)]


def _design_matrix(ndim: int) -> np.ndarray:
    """The shared (6^d, ndim+1) design matrix of normalized coords."""
    coords = np.linspace(-1.0, 1.0, BLOCK_SIDE)
    grids = np.meshgrid(*([coords] * ndim), indexing="ij")
    columns = [np.ones(BLOCK_SIDE**ndim)]
    columns += [g.reshape(-1) for g in grids]
    return np.stack(columns, axis=1)


# ----------------------------------------------------------------------
# the two per-block predictors, vectorized over all blocks
# ----------------------------------------------------------------------
def _block_lorenzo_codes(blocks: np.ndarray, eb: float,
                         ndim: int) -> np.ndarray:
    """Quantize, then n-D Lorenzo-difference *within* each block.

    Differencing runs only along the in-block axes (1..ndim), so every
    block stays independent — the block-local 3-D Lorenzo real SZ 2
    uses alongside regression.
    """
    n = blocks.shape[0]
    q = quantize_uniform(blocks, eb).reshape((n,) + (BLOCK_SIDE,) * ndim)
    q = q.view(np.uint64)
    for axis in range(1, ndim + 1):
        lo = [slice(None)] * (ndim + 1)
        hi = [slice(None)] * (ndim + 1)
        hi[axis] = slice(1, None)
        lo[axis] = slice(None, -1)
        out = q.copy()
        out[tuple(hi)] = q[tuple(hi)] - q[tuple(lo)]
        q = out
    return q.view(np.int64).reshape(n, -1)


def _block_lorenzo_decode(codes: np.ndarray, eb: float,
                          ndim: int) -> np.ndarray:
    n = codes.shape[0]
    q = np.ascontiguousarray(
        codes.reshape((n,) + (BLOCK_SIDE,) * ndim)).view(np.uint64)
    for axis in range(ndim, 0, -1):
        q = np.cumsum(q, axis=axis, dtype=np.uint64)
    return q.view(np.int64).astype(np.float64).reshape(n, -1) * (2.0 * eb)


def _regression_fit(blocks: np.ndarray, pinv: np.ndarray, eb: float
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(coef codes, residual codes) for every block at once."""
    coefs = blocks @ pinv.T  # (nblocks, ncoef)
    coef_codes = quantize_uniform(coefs, eb)
    coefs_q = coef_codes.astype(np.float64) * (2.0 * eb)
    return coef_codes, coefs_q


def compress_regression(work: np.ndarray, eb: float, adaptive: bool,
                        backend: str, level: int) -> bytes:
    """Compress with the regression predictor (optionally adaptive)."""
    blocks = _to_blocks(work)
    nblocks = blocks.shape[0]
    design = _design_matrix(work.ndim)
    pinv = np.linalg.pinv(design)

    coef_codes, coefs_q = _regression_fit(blocks, pinv, eb)
    predictions = coefs_q @ design.T
    reg_resid = quantize_uniform(blocks - predictions, eb)

    if adaptive:
        lor_codes = _block_lorenzo_codes(blocks, eb, work.ndim)
        reg_cost = np.abs(reg_resid).sum(axis=1)
        lor_cost = np.abs(lor_codes).sum(axis=1)
        use_reg = reg_cost < lor_cost
    else:
        lor_codes = None
        use_reg = np.ones(nblocks, dtype=bool)

    selector = np.packbits(use_reg).tobytes()
    # stream: residuals of regression blocks, codes of lorenzo blocks,
    # coefficients of regression blocks — one concatenated code array
    pieces = [reg_resid[use_reg].reshape(-1)]
    if lor_codes is not None:
        pieces.append(lor_codes[~use_reg].reshape(-1))
    pieces.append(coef_codes[use_reg].reshape(-1))
    payload = encode_residuals(
        np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.int64),
        backend=backend, level=level)
    import struct

    head = struct.pack("<QQ", nblocks, int(use_reg.sum()))
    return head + selector + payload


def decompress_regression(payload: bytes | memoryview, dims: tuple[int, ...],
                          eb: float) -> np.ndarray:
    """Inverse of :func:`compress_regression`."""
    import struct

    nblocks, n_reg = struct.unpack_from("<QQ", payload, 0)
    if nblocks != math.prod(-(-s // BLOCK_SIDE) for s in dims) \
            or n_reg > nblocks:
        raise CorruptStreamError(
            f"regression payload declares {nblocks} blocks ({n_reg} "
            f"regression), dims {dims} imply another count")
    sel_len = (nblocks + 7) // 8
    use_reg = np.unpackbits(
        np.frombuffer(payload, dtype=np.uint8, offset=16, count=sel_len),
        count=nblocks).astype(bool)
    ndim = len(dims)
    block_elems = BLOCK_SIDE**ndim
    ncoef = ndim + 1
    n_lor = nblocks - n_reg
    expected = nblocks * block_elems + n_reg * ncoef
    codes = decode_residuals(payload[16 + sel_len:], count=expected)

    pos = 0
    reg_resid = codes[pos:pos + n_reg * block_elems].reshape(
        n_reg, block_elems)
    pos += n_reg * block_elems
    lor_codes = codes[pos:pos + n_lor * block_elems].reshape(
        n_lor, block_elems)
    pos += n_lor * block_elems
    coef_codes = codes[pos:].reshape(n_reg, ncoef)

    design = _design_matrix(ndim)
    blocks = np.empty((nblocks, block_elems), dtype=np.float64)
    if n_reg:
        coefs_q = coef_codes.astype(np.float64) * (2.0 * eb)
        predictions = coefs_q @ design.T
        blocks[use_reg] = predictions + reg_resid.astype(np.float64) \
            * (2.0 * eb)
    if n_lor:
        blocks[~use_reg] = _block_lorenzo_decode(lor_codes, eb, ndim)
    return _from_blocks(blocks, dims)
