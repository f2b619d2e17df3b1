"""The SZ-family compression pipeline.

Algorithm (the dual-quantization factorization of SZ's
predict-then-quantize loop; see :mod:`repro.encoders.predictors`):

1. resolve the effective absolute error bound from the configured mode
   (value-range-relative bounds scale by ``max - min``, PSNR bounds by
   the uniform-quantizer MSE model, PW_REL goes through a log transform);
2. quantize values onto a ``2*eb`` grid (int32 codes when the
   quantizer's peak proves every Lorenzo residual fits int32, else
   int64);
3. Lorenzo-predict the integer codes in their own width (exact,
   vectorized);
4. entropy-code the residuals (two-stream codec + zlib family, or
   canonical Huffman);
5. prepend a self-describing header.

Pointwise-relative mode compresses ``log(|x|)`` with the absolute bound
``log(1 + pw_rel)/ (1+margin)`` and carries the sign/zero pattern in a
packed side channel, the same mathematical reduction SZ uses.
"""

from __future__ import annotations

import math

import numpy as np

from ...core.dtype import DType, dtype_from_numpy, dtype_to_numpy
from ...trace import runtime as _trace
from ...core.status import CorruptStreamError
from ...encoders.headers import read_header, write_header
from ...encoders.huffman import huffman_decode, huffman_encode
from ...encoders.predictors import lorenzo_decode, lorenzo_encode
from ...encoders.quantize import dequantize_uniform, quantize_uniform
from ...encoders.residual import (_inflate_at_most, decode_residuals,
                                  encode_residuals)
from .. import pool as _pool
from .regression import compress_regression, decompress_regression
from .params import (
    ABS,
    ABS_AND_REL,
    ABS_OR_REL,
    NORM,
    PSNR,
    PW_REL,
    REL,
    sz_params,
)

__all__ = ["compress", "compress_stage1", "compress_stage2",
           "decompress", "effective_abs_bound"]

_MAGIC = b"SZ02"

_ENTROPY_FAST = 0
_ENTROPY_HUFFMAN = 1

_MODE_PLAIN = 0
_MODE_LOG = 1  # PW_REL log-transform path

# prediction kinds carried in the stream header
_PRED_IDS = {"none": 0, "lorenzo": 1, "regression": 2, "adaptive": 3}
_PRED_NAMES = {v: k for k, v in _PRED_IDS.items()}


def effective_abs_bound(data: np.ndarray, params: sz_params) -> float:
    """Absolute error bound implied by the configured mode for ``data``."""
    mode = params.errorBoundMode
    if mode == ABS:
        return float(params.absErrBound)
    value_range = float(data.max() - data.min()) if data.size else 0.0
    if value_range == 0.0:
        value_range = float(abs(data.flat[0])) if data.size else 1.0
        if value_range == 0.0:
            value_range = 1.0
    if mode == REL:
        return params.relBoundRatio * value_range
    if mode == ABS_AND_REL:
        return min(params.absErrBound, params.relBoundRatio * value_range)
    if mode == ABS_OR_REL:
        return max(params.absErrBound, params.relBoundRatio * value_range)
    if mode == PSNR:
        # uniform quantizer: mse = eb^2 / 3; psnr = 20 log10(range) - 10 log10(mse)
        return value_range * (10.0 ** (-params.psnr / 20.0)) * np.sqrt(3.0)
    if mode == NORM:
        # L2-norm bound treated as rms target: eb = norm_bound * sqrt(3/n)
        n = max(int(data.size), 1)
        return float(params.normErrBound) * np.sqrt(3.0 / n)
    raise ValueError(f"error bound mode {mode} is not an absolute-style mode")


def _entropy_encode(residuals: np.ndarray,
                    params: sz_params) -> tuple[int, bytes]:
    """Entropy-code flat residuals (the zlib-heavy stage-2 half)."""
    with _trace.stage("sz:entropy", coder=params.entropyCoder):
        if params.entropyCoder == "huffman":
            from ...encoders.zigzag import zigzag_encode

            zz = zigzag_encode(residuals)
            if zz.size and int(zz.max()) < 2**20:
                return _ENTROPY_HUFFMAN, huffman_encode(zz)
        return _ENTROPY_FAST, encode_residuals(
            residuals, backend=params.losslessCompressor,
            level=params.zlib_level()
        )


def _encode_codes(codes: np.ndarray, params: sz_params) -> tuple[int, bytes]:
    with _trace.stage("sz:predict"):
        residuals = (
            lorenzo_encode(codes) if params.predictionMode == "lorenzo"
            else codes
        ).reshape(-1)
    return _entropy_encode(residuals, params)


def _decode_codes(entropy_kind: int, payload: memoryview,
                  dims: tuple[int, ...], prediction: str) -> np.ndarray:
    expected = math.prod(dims)
    with _trace.stage("sz:entropy"):
        if entropy_kind == _ENTROPY_HUFFMAN:
            from ...encoders.zigzag import zigzag_decode

            residuals = zigzag_decode(huffman_decode(payload))
            if residuals.size != expected:
                raise CorruptStreamError(
                    f"decoded {residuals.size} values, dims imply {expected}")
        elif entropy_kind == _ENTROPY_FAST:
            residuals = decode_residuals(payload, count=expected)
        else:
            raise CorruptStreamError(
                f"unknown entropy coder id {entropy_kind}")
    residuals = residuals.reshape(dims)
    if prediction == "lorenzo":
        with _trace.stage("sz:predict"):
            # the residual buffer came straight off the entropy decoder,
            # so it is ours to overwrite
            return lorenzo_decode(residuals, clobber=True)
    return residuals


def compress_stage1(data: np.ndarray, params: sz_params) -> dict:
    """Numpy-heavy first half of compression: bound, quantize, predict.

    Returns an opaque state dict for :func:`compress_stage2`.  The split
    exists for the pipelined executor (:mod:`repro.meta.pipeline`):
    stage 1 is pure array math that must run under the GIL, stage 2 is
    dominated by zlib/bz2/lzma which release it — so stage 2 of block
    ``i`` can overlap stage 1 of block ``i+1`` on a worker thread.

    Residuals may alias buffers from :mod:`repro.native.pool`; stage 2
    releases them, so every stage-1 state must be passed to stage 2
    exactly once.
    """
    params.validate()
    arr = np.asarray(data)
    if arr.dtype.kind not in "fiu":
        raise TypeError(f"SZ cannot compress dtype {arr.dtype}")
    dtype = dtype_from_numpy(arr.dtype)
    if params.errorBoundMode == PW_REL:
        return {"kind": "pw_rel", "arr": arr, "dtype": dtype,
                "params": params}

    eb = effective_abs_bound(arr, params)
    work = arr.astype(np.float64, copy=False)
    clobberable = (params.clobberInput and work is arr
                   and arr.dtype == np.float64 and arr.flags.writeable)
    lorenzo = params.predictionMode == "lorenzo"
    skipped_centering = lorenzo and not clobberable
    if skipped_centering:
        # Lorenzo residuals are first differences, so a constant offset
        # only ever survives in the very first residual: centering the
        # data buys nothing downstream.  Skipping it drops two full
        # passes (mean + subtract) from the hot path.  (With
        # clobberInput set the in-place subtraction is observable API
        # behaviour, so that path keeps centering; and if the
        # uncentered magnitudes overflow the code range, the quantize
        # step below falls back to centering.)
        offset = 0.0
    else:
        offset = float(work.mean()) if work.size else 0.0
        if clobberable:
            # API fidelity: some versions of real SZ treat the input as
            # scratch (paper Section IV-B).  Opt-in here; the LibPressio
            # plugin always hands the native a read-only view, so user
            # buffers are never clobbered through the uniform interface.
            work -= offset
        else:
            work = work - offset
    if params.predictionMode in ("regression", "adaptive"):
        return {"kind": "regression", "work": work, "eb": eb,
                "offset": offset, "dtype": dtype, "shape": arr.shape,
                "params": params}
    # a Lorenzo residual sums 2**ndim codes; keep them int32 when the
    # quantizer proves those sums fit
    fan_in = 2 ** work.ndim if lorenzo else 1
    with _trace.stage("sz:quantize", bound=eb):
        pooled = _pool.acquire(work.shape, np.int64)
        scratch = _pool.acquire(work.shape, np.float64)
        try:
            try:
                codes = quantize_uniform(work, eb, out=pooled,
                                         scratch=scratch, fan_in=fan_in)
            except ValueError:
                if not (skipped_centering and work.size
                        and np.all(np.isfinite(work))):
                    raise
                # overflow on the uncentered fast path: a large DC
                # component can put |value/2eb| out of code range even
                # though the centered data quantizes fine — re-center
                # and retry
                offset = float(work.mean())
                work = work - offset
                codes = quantize_uniform(work, eb, out=pooled,
                                         scratch=scratch, fan_in=fan_in)
        except BaseException:
            _pool.release(pooled, scratch)
            raise
    with _trace.stage("sz:predict"):
        try:
            if lorenzo:
                residuals = lorenzo_encode(
                    codes, scratch=scratch, clobber=True).reshape(-1)
            else:
                residuals = codes.reshape(-1)
        except BaseException:
            _pool.release(pooled, scratch)
            raise
    return {"kind": "plain", "residuals": residuals,
            "pooled": (pooled, scratch), "eb": eb, "offset": offset,
            "dtype": dtype, "shape": arr.shape, "params": params}


def compress_stage2(state: dict) -> bytes:
    """Entropy-code and frame the output of :func:`compress_stage1`."""
    params = state["params"]
    kind = state["kind"]
    if kind == "pw_rel":
        return _compress_pw_rel(state["arr"], state["dtype"], params)
    if kind == "regression":
        with _trace.stage("sz:regression"):
            payload = compress_regression(
                state["work"], state["eb"],
                params.predictionMode == "adaptive",
                params.losslessCompressor, params.zlib_level())
        header = write_header(
            _MAGIC, state["dtype"], state["shape"],
            doubles=(state["eb"], state["offset"]),
            ints=(_MODE_PLAIN, _ENTROPY_FAST,
                  _PRED_IDS[params.predictionMode]),
        )
        return header + payload
    try:
        entropy_kind, payload = _entropy_encode(state["residuals"], params)
    finally:
        _pool.release(*state["pooled"])
    header = write_header(
        _MAGIC, state["dtype"], state["shape"],
        doubles=(state["eb"], state["offset"]),
        ints=(_MODE_PLAIN, entropy_kind,
              _PRED_IDS[params.predictionMode]),
    )
    return header + payload


def compress(data: np.ndarray, params: sz_params) -> bytes:
    """Compress an n-d float array under ``params``; returns the stream.

    When ``params.clobberInput`` is set, the input may be used as scratch
    space (the surprising behaviour of some real SZ versions the paper
    calls out); the LibPressio plugin protects callers by passing a
    read-only view.
    """
    return compress_stage2(compress_stage1(data, params))


def decompress(stream: bytes | memoryview, expected_dims: tuple[int, ...] | None = None
               ) -> np.ndarray:
    """Decompress an SZ stream back to an ndarray."""
    dtype, dims, doubles, ints, offset_pos = read_header(stream, _MAGIC,
                                                          expected_dims)
    payload = memoryview(stream)[offset_pos:]
    mode = ints[0]
    if mode == _MODE_LOG:
        return _decompress_pw_rel(dtype, dims, doubles, ints, payload)
    eb, offset = doubles
    entropy_kind = ints[1]
    prediction = _PRED_NAMES.get(ints[2], "lorenzo")
    np_dtype = dtype_to_numpy(dtype)
    if prediction in ("regression", "adaptive"):
        with _trace.stage("sz:regression"):
            out = decompress_regression(payload, dims, eb) + offset
    else:
        codes = _decode_codes(entropy_kind, payload, dims, prediction)
        with _trace.stage("sz:dequantize"):
            out = dequantize_uniform(codes, eb,
                                     out=np.empty(dims, dtype=np.float64))
            if offset:
                # adding a zero offset changes no bit: a code times a
                # positive step is never -0.0
                out += offset
    if np_dtype.kind in "iu":
        return np.rint(out, out=out).astype(np_dtype)
    return out.astype(np_dtype, copy=False)


# ----------------------------------------------------------------------
# pointwise-relative mode
# ----------------------------------------------------------------------
def _compress_pw_rel(arr: np.ndarray, dtype: DType, params: sz_params) -> bytes:
    pw = float(params.pw_relBoundRatio)
    values = arr.astype(np.float64, copy=False)
    flat = values.reshape(-1)
    zero_mask = flat == 0.0
    neg_mask = flat < 0.0
    # compress log|x| with abs bound log(1+pw); reconstruction error is then
    # |x' - x| <= |x| * (e^{log(1+pw)} - 1) = pw * |x|
    log_bound = float(np.log1p(pw)) * 0.999999
    logs = np.zeros_like(flat)
    nz = ~zero_mask
    logs[nz] = np.log(np.abs(flat[nz]))
    if np.any(nz):
        fill = float(logs[nz].min())
    else:
        fill = 0.0
    logs[zero_mask] = fill  # placeholder; masked out on reconstruction
    codes = quantize_uniform(logs.reshape(arr.shape), log_bound)
    entropy_kind, payload = _encode_codes(codes, params)
    sign_bits = np.packbits(neg_mask.astype(np.uint8)).tobytes()
    zero_bits = np.packbits(zero_mask.astype(np.uint8)).tobytes()
    import zlib

    side = zlib.compress(sign_bits + zero_bits, 1)
    header = write_header(
        _MAGIC, dtype, arr.shape,
        doubles=(log_bound, 0.0),
        ints=(_MODE_LOG, entropy_kind,
              1 if params.predictionMode == "lorenzo" else 0, len(side)),
    )
    return header + np.uint64(len(payload)).tobytes() + payload + side


def _decompress_pw_rel(dtype: DType, dims: tuple[int, ...],
                       doubles: tuple[float, ...], ints: tuple[int, ...],
                       payload: memoryview) -> np.ndarray:
    log_bound = doubles[0]
    entropy_kind = ints[1]
    prediction = "lorenzo" if ints[2] else "none"
    n = math.prod(dims)
    nbytes_bits = (n + 7) // 8
    if len(payload) < 8:
        raise CorruptStreamError("sz pw_rel payload is truncated")
    n_payload = int(np.frombuffer(payload[:8], dtype=np.uint64)[0])
    body = payload[8:8 + n_payload]
    # the sign and zero bit planes inflate to a size the dims fix
    try:
        side = _inflate_at_most("zlib", payload[8 + n_payload:],
                                2 * nbytes_bits)
    except ValueError as e:
        raise CorruptStreamError(f"sz pw_rel side channel: {e}") from None
    if len(side) != 2 * nbytes_bits:
        raise CorruptStreamError(
            f"sz pw_rel side channel holds {len(side)} bytes, dims imply "
            f"{2 * nbytes_bits}")
    sign_bits = np.unpackbits(
        np.frombuffer(side[:nbytes_bits], dtype=np.uint8), count=n
    ).astype(bool)
    zero_bits = np.unpackbits(
        np.frombuffer(side[nbytes_bits:], dtype=np.uint8), count=n
    ).astype(bool)
    codes = _decode_codes(entropy_kind, body, dims, prediction)
    logs = dequantize_uniform(codes, log_bound).reshape(-1)
    out = np.exp(logs)
    out[sign_bits] = -out[sign_bits]
    out[zero_bits] = 0.0
    return out.reshape(dims).astype(dtype_to_numpy(dtype), copy=False)
