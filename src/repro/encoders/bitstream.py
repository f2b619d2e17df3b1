"""Bit-level packing utilities.

Two layers are provided:

* :func:`pack_varwidth` — vectorized MSB-first packing of values with
  per-value bit widths, which the canonical Huffman encoder emits its
  codes through;
* :class:`BitWriter` / :class:`BitReader` — sequential MSB-first bit
  IO, one value per ``write`` / ``read`` call: the value-at-a-time
  reference :func:`pack_varwidth` is tested against (no coder calls
  them).

The vectorized path expands values to a flat bit array with ``repeat`` /
``arange`` arithmetic and defers to ``numpy.packbits`` (C speed), the
pattern the HPC guides recommend instead of per-element Python loops.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pack_varwidth", "BitWriter", "BitReader"]


def pack_varwidth(values: np.ndarray, widths: np.ndarray) -> bytes:
    """Pack values with per-value bit widths, MSB-first, concatenated.

    Vectorized: per-value bit offsets come from a cumulative sum of the
    widths; every output bit is computed with one gather.
    """
    v = np.ascontiguousarray(values, dtype=np.uint64).reshape(-1)
    w = np.ascontiguousarray(widths, dtype=np.int64).reshape(-1)
    if v.size != w.size:
        raise ValueError("values and widths must have equal length")
    if v.size == 0:
        return b""
    if np.any((w < 0) | (w > 64)):
        raise ValueError("per-value widths must be in [0, 64]")
    total = int(w.sum())
    if total == 0:
        return b""
    starts = np.concatenate(([0], np.cumsum(w)))[:-1]
    owner = np.repeat(np.arange(v.size), w)
    bit_in_value = np.arange(total) - starts[owner]
    shift = (w[owner] - 1 - bit_in_value).astype(np.uint64)
    bits = ((v[owner] >> shift) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits).tobytes()


class BitWriter:
    """Sequential MSB-first bit writer."""

    def __init__(self) -> None:
        self._chunks: list[np.ndarray] = []

    def write(self, value: int, width: int) -> None:
        """Append the low ``width`` bits of ``value``, MSB first."""
        if not 0 <= width <= 64:
            raise ValueError(f"width must be in [0, 64], got {width}")
        if width == 0:
            return
        v = np.uint64(value & ((1 << width) - 1) if width < 64 else value & (2**64 - 1))
        shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
        self._chunks.append(((v >> shifts) & np.uint64(1)).astype(np.uint8))

    @property
    def bit_length(self) -> int:
        return sum(c.size for c in self._chunks)

    def getvalue(self) -> bytes:
        if not self._chunks:
            return b""
        return np.packbits(np.concatenate(self._chunks)).tobytes()


class BitReader:
    """Sequential MSB-first bit reader over a byte buffer."""

    def __init__(self, buf: bytes | memoryview):
        self._bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8))
        self._pos = 0

    def read(self, width: int) -> int:
        """Read ``width`` bits as an unsigned integer."""
        if not 0 <= width <= 64:
            raise ValueError(f"width must be in [0, 64], got {width}")
        if width == 0:
            return 0
        end = self._pos + width
        if end > self._bits.size:
            raise ValueError("bit stream exhausted")
        chunk = self._bits[self._pos:end]
        self._pos = end
        weights = np.uint64(1) << np.arange(width - 1, -1, -1, dtype=np.uint64)
        return int(chunk.astype(np.uint64) @ weights)

    @property
    def remaining(self) -> int:
        return self._bits.size - self._pos

    @property
    def position(self) -> int:
        return self._pos
