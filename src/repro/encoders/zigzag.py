"""Zigzag mapping between signed and unsigned integers.

Maps 0, -1, 1, -2, 2, ... to 0, 1, 2, 3, 4, ... so that residuals centered
on zero become small unsigned values, which downstream byte/entropy coders
exploit.  All operations are vectorized and overflow-safe for the full
range of the width they run in (the arithmetic is two's complement).

Both directions accept ``out``/``scratch`` buffers (matching shape) so
the hot paths can run on pooled memory without allocating; with both
provided, no arrays are created.  Without buffers both directions work
in 64 bits.  With them, each works in its input's own width (the
mapping does not depend on it): int16 values encode to uint16 codes and
uint16 codes decode to int16 values, without widening to 64 bits.
"""

from __future__ import annotations

import numpy as np

__all__ = ["zigzag_encode", "zigzag_decode"]


def zigzag_encode(values: np.ndarray,
                  out: np.ndarray | None = None,
                  scratch: np.ndarray | None = None) -> np.ndarray:
    """Map a signed integer array to unsigned zigzag codes.

    ``v >= 0 -> 2v`` and ``v < 0 -> -2v - 1``; computed branch-free as
    ``(v << 1) ^ (v >> (bits - 1))`` in two's complement.

    Without buffers the result is uint64.  With ``out`` and ``scratch``
    (each the values' itemsize; ``out`` may be ``values`` itself) native
    signed values are encoded in their own width into unsigned codes of
    that width; any other input is first cast to int64.
    """
    if out is None or scratch is None:
        v = np.ascontiguousarray(values, dtype=np.int64)
        sign = np.ascontiguousarray(v >> np.int64(63)).view(np.uint64)
        return (v.view(np.uint64) << np.uint64(1)) ^ sign
    v = np.asarray(values)
    if v.dtype.kind != "i" or not v.dtype.isnative:
        v = v.astype(np.int64)
    u = v.view(f"u{v.itemsize}")
    o = out.view(u.dtype).reshape(v.shape)
    s = scratch.view(u.dtype).reshape(v.shape)
    np.right_shift(v, 8 * v.itemsize - 1, out=s.view(v.dtype))
    np.left_shift(u, 1, out=o)
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
