"""Zigzag mapping between signed and unsigned integers.

Maps 0, -1, 1, -2, 2, ... to 0, 1, 2, 3, 4, ... so that residuals centered
on zero become small unsigned values, which downstream byte/entropy coders
exploit.  All operations are vectorized and overflow-safe for the full
int64 range (the arithmetic is done in uint64 two's complement).

Both directions accept ``out``/``scratch`` buffers (matching shape) so
the hot paths can run on pooled memory without allocating; with both
provided, no arrays are created.  Encode buffers are 64-bit; buffered
decode works in the codes' own unsigned width (the mapping does not
depend on it), so narrow codes decode without first widening to 64 bits.
"""

from __future__ import annotations

import numpy as np

__all__ = ["zigzag_encode", "zigzag_decode"]


def zigzag_encode(values: np.ndarray,
                  out: np.ndarray | None = None,
                  scratch: np.ndarray | None = None) -> np.ndarray:
    """Map a signed integer array to unsigned zigzag codes.

    ``v >= 0 -> 2v`` and ``v < 0 -> -2v - 1``; computed branch-free as
    ``(v << 1) ^ (v >> 63)`` in two's complement.
    """
    v = np.ascontiguousarray(values, dtype=np.int64)
    u = v.view(np.uint64)
    if out is None or scratch is None:
        sign = np.ascontiguousarray(v >> np.int64(63)).view(np.uint64)
        return (u << np.uint64(1)) ^ sign
    o = out.view(np.uint64).reshape(v.shape)
    s = scratch.view(np.uint64).reshape(v.shape)
    np.right_shift(v, np.int64(63), out=s.view(np.int64))
    np.left_shift(u, np.uint64(1), out=o)
    np.bitwise_xor(o, s, out=o)
    return o


def zigzag_decode(codes: np.ndarray,
                  out: np.ndarray | None = None,
                  scratch: np.ndarray | None = None) -> np.ndarray:
    """Inverse of :func:`zigzag_encode`: ``(u >> 1) ^ -(u & 1)``.

    Without buffers the result is int64.  With ``out`` and ``scratch``
    (each the codes' itemsize; ``out`` may be ``codes`` itself) unsigned
    codes are decoded in their own width into signed ints of that width.
    """
    if out is None or scratch is None:
        u = np.asarray(codes, dtype=np.uint64)
        half = (u >> np.uint64(1)).view(np.int64)
        sign = -(u & np.uint64(1)).view(np.int64)
        return half ^ sign
    u = np.asarray(codes)
    u = u.view(f"u{u.itemsize}")
    o = out.view(f"i{u.itemsize}").reshape(u.shape)
    s = scratch.view(u.dtype).reshape(u.shape)
    np.right_shift(u, 1, out=s)
    np.bitwise_and(u, 1, out=o.view(u.dtype))
    np.negative(o, out=o)
    np.bitwise_xor(s.view(o.dtype), o, out=o)
    return o
