"""Binary stream-header helpers shared by the native compressors.

Every native library in this reproduction writes a small self-describing
header (magic, dtype, dims, mode parameters) in front of its payload so
decompression can validate the stream — the metadata passing the paper's
Section II identifies as the hard part of a uniform interface.
"""

from __future__ import annotations

import struct

import numpy as np

from ..core.dtype import DType
from ..core.status import CorruptStreamError

__all__ = ["write_header", "read_header", "HeaderError"]

HeaderError = CorruptStreamError

_FMT_VERSION = 1


def write_header(magic: bytes, dtype: DType, dims: tuple[int, ...],
                 doubles: tuple[float, ...] = (), ints: tuple[int, ...] = ()) -> bytes:
    """Serialize a stream header.

    Layout (little-endian): magic(4) version(u8) dtype(u8) ndims(u8)
    ndoubles(u8) nints(u8) dims(u64 each) doubles(f64 each) ints(i64 each).
    """
    if len(magic) != 4:
        raise ValueError("magic must be exactly 4 bytes")
    head = struct.pack(
        "<4sBBBBB", magic, _FMT_VERSION, int(dtype), len(dims), len(doubles), len(ints)
    )
    body = struct.pack(f"<{len(dims)}Q", *dims) if dims else b""
    body += struct.pack(f"<{len(doubles)}d", *doubles) if doubles else b""
    body += struct.pack(f"<{len(ints)}q", *ints) if ints else b""
    return head + body


def read_header(stream: bytes | memoryview, magic: bytes,
                expected_dims: tuple[int, ...] | None = None
                ) -> tuple[DType, tuple[int, ...], tuple[float, ...], tuple[int, ...], int]:
    """Parse a header written by :func:`write_header`.

    Returns (dtype, dims, doubles, ints, payload_offset); raises
    :class:`CorruptStreamError` on mismatch, including dims that differ
    from ``expected_dims`` (the output template's) when it is given —
    before the caller sizes any buffer from them.
    """
    view = memoryview(stream)
    if len(view) < 9:
        raise CorruptStreamError("stream too short for header")
    got_magic, version, dtype_raw, ndims, ndoubles, nints = struct.unpack_from(
        "<4sBBBBB", view, 0
    )
    if got_magic != magic:
        raise CorruptStreamError(
            f"bad magic: expected {magic!r}, got {got_magic!r}"
        )
    if version != _FMT_VERSION:
        raise CorruptStreamError(f"unsupported header version {version}")
    try:
        dtype = DType(dtype_raw)
    except ValueError:
        raise CorruptStreamError(f"invalid dtype code {dtype_raw}") from None
    pos = 9
    need = 8 * (ndims + ndoubles + nints)
    if len(view) < pos + need:
        raise CorruptStreamError("stream truncated inside header")
    dims = struct.unpack_from(f"<{ndims}Q", view, pos) if ndims else ()
    pos += 8 * ndims
    doubles = struct.unpack_from(f"<{ndoubles}d", view, pos) if ndoubles else ()
    pos += 8 * ndoubles
    ints = struct.unpack_from(f"<{nints}q", view, pos) if nints else ()
    pos += 8 * nints
    dims = tuple(int(d) for d in dims)
    if any(not np.isfinite(d) for d in doubles):
        # NaN parameters are legal in principle but always indicate stream
        # corruption for the compressors in this repo
        raise CorruptStreamError("non-finite parameter in header")
    if expected_dims is not None and tuple(expected_dims) != dims:
        raise CorruptStreamError(
            f"stream dims {dims} do not match expected {tuple(expected_dims)}"
        )
    return dtype, dims, doubles, tuple(int(i) for i in ints), pos
