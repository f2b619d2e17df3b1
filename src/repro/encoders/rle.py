"""Run-length encoding over byte streams.

Format: a sequence of (varint run_length, 1 byte value) pairs.  Run
detection and expansion are vectorized with boundary masks and
``numpy.repeat``; only the header parse is scalar.
"""

from __future__ import annotations

import numpy as np

from .varint import varint_decode_array, varint_encode_array

__all__ = ["rle_encode", "rle_decode"]

_MAGIC = b"RLE1"


def rle_encode(data: bytes | np.ndarray) -> bytes:
    """Encode bytes as (count, value) runs."""
    arr = np.frombuffer(data, dtype=np.uint8) if isinstance(data, (bytes, bytearray, memoryview)) \
        else np.ascontiguousarray(data, dtype=np.uint8).reshape(-1)
    if arr.size == 0:
        return _MAGIC + varint_encode_array(np.array([0], dtype=np.uint64))
    boundaries = np.flatnonzero(np.diff(arr)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [arr.size]))
    run_lengths = (ends - starts).astype(np.uint64)
    values = arr[starts]
    header = varint_encode_array(
        np.concatenate(([np.uint64(run_lengths.size)], run_lengths))
    )
    return _MAGIC + header + values.tobytes()


def rle_decode(stream: bytes | memoryview, size: int) -> bytes:
    """Inverse of :func:`rle_encode`, for a stream of ``size`` bytes.

    The run lengths must sum to ``size``, checked before the runs are
    expanded, so a forged length cannot allocate more.
    """
    view = memoryview(stream)
    if bytes(view[:4]) != _MAGIC:
        raise ValueError("not an RLE stream (bad magic)")
    count_arr, consumed = varint_decode_array(view[4:], 1)
    n_runs = int(count_arr[0])
    lengths, consumed2 = varint_decode_array(view[4 + consumed:], n_runs)
    # the max bounds the uint64 sum, which would wrap past 2**64
    if int(lengths.max(initial=0)) > size or int(lengths.sum()) != size:
        raise ValueError(f"RLE runs do not sum to {size} bytes")
    if n_runs == 0:
        return b""
    values = np.frombuffer(view, dtype=np.uint8,
                           offset=4 + consumed + consumed2, count=n_runs)
    return np.repeat(values, lengths.astype(np.int64)).tobytes()
