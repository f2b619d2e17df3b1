"""Scalar reference implementations of the vectorized encoder kernels.

Each function here is the straight-line, per-element transliteration of
the algorithm its vectorized counterpart implements.  They exist for two
reasons:

* the property tests (``tests/properties/``) assert the production
  kernels are byte-identical to these across dtypes, degenerate shapes,
  and adversarial values — the reference is simple enough to audit by
  eye;
* they document the algorithms without numpy idiom in the way.

They are **intentionally slow**: per-element Python loops over array
indices.  The hot-path linter (rule HP004) flags exactly this pattern,
and these functions carry hot-path-shaped names on purpose so they show
up in the lint baseline (``lint-baseline.json``) as the canonical
example of a *suppressed* finding — scalar-by-design code that must
never be "fixed" into the production path.

Never import this module from production code paths.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "_encode_quantize_reference",
    "_decode_dequantize_reference",
    "_encode_zigzag_reference",
    "_decode_zigzag_reference",
    "_encode_lorenzo_reference",
    "_decode_lorenzo_reference",
    "_bitpack_reference",
    "_bitunpack_reference",
]

_U64 = 1 << 64
_CHUNK = 32  # values per BITPACK chunk


def _encode_quantize_reference(values: np.ndarray,
                               error_bound: float) -> np.ndarray:
    """Per-element uniform quantizer (matches ``quantize_uniform``)."""
    flat = np.asarray(values).reshape(-1)
    out = np.empty(flat.size, dtype=np.int64)
    step = 2.0 * error_bound
    for i in range(flat.size):
        scaled = np.float64(flat[i]) / step
        if not abs(scaled) < 2 ** 56:  # same overflow guard as production
            if not np.isfinite(np.float64(flat[i])):
                raise ValueError("cannot quantize non-finite values")
            raise ValueError(
                "error bound too small relative to data magnitude")
        out[i] = np.int64(np.rint(scaled))
    return out.reshape(np.asarray(values).shape)


def _decode_dequantize_reference(codes: np.ndarray, error_bound: float,
                                 dtype: np.dtype = np.dtype(np.float64)
                                 ) -> np.ndarray:
    """Per-element inverse of the uniform quantizer."""
    flat = np.asarray(codes).reshape(-1)
    out = np.empty(flat.size, dtype=np.float64)
    step = 2.0 * error_bound
    for i in range(flat.size):
        out[i] = np.float64(flat[i]) * step
    return out.reshape(np.asarray(codes).shape).astype(dtype)


def _encode_zigzag_reference(values: np.ndarray) -> np.ndarray:
    """Per-element zigzag map: 0,-1,1,-2,... -> 0,1,2,3,..."""
    flat = np.ascontiguousarray(values, dtype=np.int64).reshape(-1)
    out = np.empty(flat.size, dtype=np.uint64)
    for i in range(flat.size):
        v = int(flat[i])
        out[i] = (2 * v if v >= 0 else -2 * v - 1) % _U64
    return out.reshape(np.asarray(values).shape)


def _decode_zigzag_reference(codes: np.ndarray) -> np.ndarray:
    """Per-element inverse zigzag map."""
    flat = np.asarray(codes, dtype=np.uint64).reshape(-1)
    out = np.empty(flat.size, dtype=np.int64)
    for i in range(flat.size):
        u = int(flat[i])
        v = u >> 1 if u % 2 == 0 else -((u + 1) >> 1)
        out[i] = np.int64(v % _U64 - _U64 if v % _U64 >= _U64 // 2
                          else v % _U64)
    return out.reshape(np.asarray(codes).shape)


def _lorenzo_prediction(arr_int: list[int], shape: tuple[int, ...],
                        strides: tuple[int, ...], flat_idx: int,
                        coords: tuple[int, ...]) -> int:
    """Inclusion-exclusion corner prediction at one site (mod 2^64)."""
    ndim = len(shape)
    pred = 0
    # every nonempty subset of axes contributes a corner neighbor with
    # sign (-1)^(|subset|+1)
    for mask in range(1, 1 << ndim):
        off = 0
        ok = True
        bits = 0
        for axis in range(ndim):
            if mask >> axis & 1:
                if coords[axis] == 0:
                    ok = False
                    break
                off += strides[axis]
                bits += 1
        if not ok:
            continue
        sign = 1 if bits % 2 == 1 else -1
        pred += sign * arr_int[flat_idx - off]
    return pred % _U64


def _encode_lorenzo_reference(quantized: np.ndarray) -> np.ndarray:
    """Per-element d-dimensional Lorenzo residuals (wrap-around uint64).

    Out-of-range neighbors count as zero, matching the vectorized
    first-difference composition in ``lorenzo_encode``.
    """
    arr = np.ascontiguousarray(quantized, dtype=np.int64)
    shape = arr.shape
    strides = tuple(int(s) // arr.itemsize for s in arr.strides)
    vals = [int(v) % _U64 for v in arr.reshape(-1)]
    out = np.empty(len(vals), dtype=np.uint64)
    for flat_idx, coords in enumerate(np.ndindex(*shape) if shape
                                      else [()]):
        pred = _lorenzo_prediction(vals, shape, strides, flat_idx, coords)
        out[flat_idx] = (vals[flat_idx] - pred) % _U64
    return out.reshape(shape).view(np.int64)


def _decode_lorenzo_reference(residuals: np.ndarray) -> np.ndarray:
    """Per-element inverse: reconstruct each site from decoded neighbors."""
    arr = np.ascontiguousarray(residuals, dtype=np.int64)
    shape = arr.shape
    strides = tuple(int(s) // arr.itemsize for s in arr.strides)
    res = [int(v) % _U64 for v in arr.reshape(-1)]
    vals: list[int] = [0] * len(res)
    for flat_idx, coords in enumerate(np.ndindex(*shape) if shape
                                      else [()]):
        pred = _lorenzo_prediction(vals, shape, strides, flat_idx, coords)
        vals[flat_idx] = (res[flat_idx] + pred) % _U64
    out = np.empty(len(vals), dtype=np.uint64)
    for i in range(len(vals)):
        out[i] = vals[i]
    return out.reshape(shape).view(np.int64)


def _bitpack_reference(plane: np.ndarray) -> bytes:
    """Per-bit RZC2 BITPACK layout of a uint8 plane.

    The plane is zero-padded to whole 32-value chunks; each chunk's
    width is the bit length of its largest value.  The stream is the
    widths, two per byte (high nibble first), then for each width 1..8
    in ascending order, every chunk of that width in chunk order, each
    value's low ``width`` bits MSB first.
    """
    vals = [int(v) for v in np.asarray(plane, dtype=np.uint8).reshape(-1)]
    nchunks = (len(vals) + _CHUNK - 1) // _CHUNK
    vals += [0] * (nchunks * _CHUNK - len(vals))
    widths = [max(v.bit_length() for v in vals[c * _CHUNK:(c + 1) * _CHUNK])
              for c in range(nchunks)]
    out = bytearray()
    for c in range(0, nchunks, 2):
        low = widths[c + 1] if c + 1 < nchunks else 0
        out.append(widths[c] << 4 | low)
    bits = []
    for w in range(1, 9):
        for c in range(nchunks):
            if widths[c] != w:
                continue
            for v in vals[c * _CHUNK:(c + 1) * _CHUNK]:
                for b in range(w - 1, -1, -1):
                    bits.append(v >> b & 1)
    for i in range(0, len(bits), 8):
        byte = 0
        for bit in bits[i:i + 8]:
            byte = byte << 1 | bit
        out.append(byte)
    return bytes(out)


def _bitunpack_reference(buf: bytes, n: int) -> np.ndarray:
    """Per-bit inverse of :func:`_bitpack_reference`: ``n`` uint8."""
    nchunks = (n + _CHUNK - 1) // _CHUNK
    nwb = (nchunks + 1) // 2
    widths = []
    for byte in buf[:nwb]:
        widths += [byte >> 4, byte & 0x0F]
    widths = widths[:nchunks]
    bits = []
    for byte in buf[nwb:]:
        for b in range(7, -1, -1):
            bits.append(byte >> b & 1)
    vals = [0] * (nchunks * _CHUNK)
    pos = 0
    for w in range(1, 9):
        for c in range(nchunks):
            if widths[c] != w:
                continue
            for j in range(_CHUNK):
                v = 0
                for _ in range(w):
                    v = v << 1 | bits[pos]
                    pos += 1
                vals[c * _CHUNK + j] = v
    return np.array(vals[:n], dtype=np.uint8)
