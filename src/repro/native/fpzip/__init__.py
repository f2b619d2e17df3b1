"""fpzip-style specialized lossless floating-point compressor.

Like real fpzip (Lindstrom & Isenburg 2006), this native *only accepts
floating point inputs* — the property the paper uses as the canonical
example of a compressor whose interface needs data-type metadata.

Algorithm: floats are mapped to sign-magnitude-ordered integers (a
monotonic bijection), Lorenzo-predicted across all dimensions, and the
integer residuals entropy coded.  The round trip is bit exact.

API flavour: fpzip's header+context style —

    ctx = fpzip_write_ctx(type, prec, nx, ny, nz, nf)
    stream = fpzip_write(ctx, data)
    ctx = fpzip_read_ctx(stream)
    data = fpzip_read(ctx)
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ...core.status import InvalidTypeError
from ...encoders.headers import read_header, write_header
from ...encoders.predictors import lorenzo_decode, lorenzo_encode
from ...encoders.residual import decode_residuals, encode_residuals
from ..zfp.core import _float_to_ordered_int, _ordered_int_to_float

__all__ = [
    "FPZIP_TYPE_FLOAT",
    "FPZIP_TYPE_DOUBLE",
    "fpzip_write_ctx",
    "fpzip_read_ctx",
    "fpzip_write",
    "fpzip_read",
    "compress",
    "decompress",
]

_MAGIC = b"FPZ1"

FPZIP_TYPE_FLOAT = 0
FPZIP_TYPE_DOUBLE = 1

from ...core.dtype import DType, dtype_from_numpy, dtype_to_numpy  # noqa: E402


def compress(data: np.ndarray, backend: str = "zlib", level: int = 1) -> bytes:
    """Losslessly compress a float32/float64 array."""
    arr = np.asarray(data)
    if arr.dtype not in (np.float32, np.float64):
        raise InvalidTypeError(
            f"fpzip only accepts floating point inputs, got {arr.dtype}"
        )
    dtype = dtype_from_numpy(arr.dtype)
    codes = _float_to_ordered_int(np.ascontiguousarray(arr).reshape(-1))
    residuals = lorenzo_encode(codes.reshape(arr.shape))
    payload = encode_residuals(residuals.reshape(-1), backend=backend,
                               level=level)
    return write_header(_MAGIC, dtype, arr.shape) + payload


def decompress(stream: bytes | memoryview,
               expected_dims: tuple[int, ...] | None = None) -> np.ndarray:
    """Bit-exact inverse of :func:`compress`."""
    dtype, dims, _doubles, _ints, pos = read_header(stream, _MAGIC,
                                                    expected_dims)
    residuals = decode_residuals(memoryview(stream)[pos:],
                                 count=math.prod(dims))
    # the residuals came straight off the decoder, so they are ours
    codes = lorenzo_decode(residuals.reshape(dims), clobber=True)
    np_dtype = dtype_to_numpy(dtype)
    return _ordered_int_to_float(codes.reshape(-1), np_dtype).reshape(dims)


@dataclasses.dataclass
class _FpzipCtx:
    """Carrier for fpzip's context-style API."""

    type: int
    nx: int
    ny: int
    nz: int
    nf: int
    stream: bytes | None = None


def fpzip_write_ctx(type: int, nx: int, ny: int = 1, nz: int = 1,
                    nf: int = 1) -> _FpzipCtx:
    """Open a write context; dims follow fpzip's (nx fastest) order."""
    if type not in (FPZIP_TYPE_FLOAT, FPZIP_TYPE_DOUBLE):
        raise ValueError(f"unknown fpzip type {type}")
    return _FpzipCtx(type, nx, ny, nz, nf)


def fpzip_write(ctx: _FpzipCtx, data: np.ndarray) -> bytes:
    """Compress ``data`` described by the context."""
    np_dtype = np.float32 if ctx.type == FPZIP_TYPE_FLOAT else np.float64
    dims = tuple(d for d in (ctx.nf, ctx.nz, ctx.ny, ctx.nx) if d > 1) or (ctx.nx,)
    arr = np.asarray(data, dtype=np_dtype).reshape(dims)
    ctx.stream = compress(arr)
    return ctx.stream


def fpzip_read_ctx(stream: bytes) -> _FpzipCtx:
    """Open a read context by parsing the stream header."""
    dtype, dims, _d, _i, _pos = read_header(stream, _MAGIC)
    padded = (1,) * (4 - len(dims)) + dims
    nf, nz, ny, nx = padded
    t = FPZIP_TYPE_FLOAT if dtype == DType.FLOAT else FPZIP_TYPE_DOUBLE
    ctx = _FpzipCtx(t, nx, ny, nz, nf)
    ctx.stream = bytes(stream)
    return ctx


def fpzip_read(ctx: _FpzipCtx) -> np.ndarray:
    """Decompress the stream attached to a read context."""
    if ctx.stream is None:
        raise ValueError("context has no stream attached")
    return decompress(ctx.stream)
