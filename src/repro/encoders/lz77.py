"""A from-scratch sliding-window (LZ77-family) byte codec.

Greedy hash-chain matcher over 4-byte anchors with a bounded window and
chain depth, emitting ``(literal-run, match)`` token pairs:

    token := varint(lit_len) lit_bytes varint(match_len) varint(distance)

``match_len == 0`` terminates the stream (distance omitted).  Decoding
expands matches with the classic overlapped-copy semantics, chunked so
long self-referential runs stay O(n).

This codec backs the ``pressio-lz`` lossless compressor plugin.  It is a
pure-Python demonstration of the "third-party codec" story, not the fast
path — the residual codec in :mod:`repro.encoders.residual` is the
performance backend.
"""

from __future__ import annotations

from .varint import varint_decode, varint_encode

__all__ = ["lz77_encode", "lz77_decode"]

_MAGIC = b"PLZ1"
_MIN_MATCH = 4
_MAX_CHAIN = 16


def lz77_encode(data: bytes, window: int = 1 << 16) -> bytes:
    """Encode ``data``; ``window`` bounds match distances."""
    n = len(data)
    out = bytearray(_MAGIC)
    out += varint_encode(n)
    if n == 0:
        out += varint_encode(0)  # lit_len 0
        out += varint_encode(0)  # match_len 0 (end)
        return bytes(out)

    table: dict[bytes, list[int]] = {}
    pos = 0
    lit_start = 0

    def emit(lit_end: int, match_len: int, distance: int) -> None:
        out.extend(varint_encode(lit_end - lit_start))
        out.extend(data[lit_start:lit_end])
        out.extend(varint_encode(match_len))
        if match_len:
            out.extend(varint_encode(distance))

    while pos + _MIN_MATCH <= n:
        key = data[pos:pos + _MIN_MATCH]
        candidates = table.get(key)
        best_len = 0
        best_dist = 0
        if candidates:
            lo = pos - window
            for cand in reversed(candidates[-_MAX_CHAIN:]):
                if cand < lo:
                    break
                length = _MIN_MATCH
                limit = n - pos
                while length < limit and data[cand + length] == data[pos + length]:
                    length += 1
                if length > best_len:
                    best_len = length
                    best_dist = pos - cand
                    if length >= 64:
                        break
        table.setdefault(key, []).append(pos)
        if best_len >= _MIN_MATCH:
            emit(pos, best_len, best_dist)
            # index a sample of the matched region to keep encode O(n)
            step = 1 if best_len <= 16 else 4
            for p in range(pos + 1, min(pos + best_len, n - _MIN_MATCH), step):
                table.setdefault(data[p:p + _MIN_MATCH], []).append(p)
            pos += best_len
            lit_start = pos
        else:
            pos += 1

    emit(n, 0, 0)
    return bytes(out)


def lz77_decode(stream: bytes | memoryview, size: int) -> bytes:
    """Inverse of :func:`lz77_encode`, for a stream of ``size`` bytes.

    The declared total must be ``size``, and no literal run or match
    may write past it, so a forged stream cannot allocate more.
    """
    buf = bytes(stream)
    if buf[:4] != _MAGIC:
        raise ValueError("not a pressio-lz stream (bad magic)")
    total, pos = varint_decode(buf, 4)
    if total != size:
        raise ValueError(
            f"pressio-lz stream declares {total} bytes, expected {size}")
    out = bytearray()
    while True:
        lit_len, pos = varint_decode(buf, pos)
        if lit_len:
            if lit_len > total - len(out):
                raise ValueError("corrupt pressio-lz stream: overlong literal")
            out += buf[pos:pos + lit_len]
            pos += lit_len
        match_len, pos = varint_decode(buf, pos)
        if match_len == 0:
            break
        distance, pos = varint_decode(buf, pos)
        if distance <= 0 or distance > len(out):
            raise ValueError("corrupt pressio-lz stream: bad distance")
        if match_len > total - len(out):
            raise ValueError("corrupt pressio-lz stream: overlong match")
        start = len(out) - distance
        while match_len > 0:
            chunk = out[start:start + min(match_len, distance)]
            out += chunk
            match_len -= len(chunk)
            start += len(chunk)
    if len(out) != total:
        raise ValueError(
            f"corrupt pressio-lz stream: expected {total} bytes, got {len(out)}"
        )
    return bytes(out)
