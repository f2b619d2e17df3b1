"""Byte-plane residual codec for prediction residuals.

Prediction-based compressors (our sz, zfp, mgard, fpzip natives)
produce signed residual arrays dominated by values near zero.  Two
stream formats live here:

* **RZC2** (current): residuals are zigzag mapped and the uint64 codes
  are split into little-endian *byte planes*; only the planes up to the
  largest code's byte length are stored, and each plane independently
  picks the cheapest of five encodings from byte statistics computed in
  single vectorized passes:

  - ``CONST`` — every byte equal: 1 byte;
  - ``RAW`` — verbatim;
  - ``SPARSE`` — positions + values of the nonzero bytes;
  - ``BITPACK`` — 32-value chunks packed at each chunk's own bit width
    (32·w bits is always whole bytes), eight values per uint64 word;
  - ``ZLIB`` — DEFLATE, tried only when a byte-histogram entropy
    estimate predicts it beats the structural encodings by enough to
    be worth its CPU cost (always worth trying at high effort levels).

  Decode rebuilds the codes in the narrowest unsigned dtype the plane
  count allows and widens them to int64 once.  Both directions run on
  pooled scratch (:mod:`repro.native.pool`) and never scan
  byte-by-byte in Python.

* **RZC1** (legacy): ``min(code, 255)`` bytes plus an 8-byte overflow
  stream, the whole payload squeezed by a ``zlib``-family backend.
  Decode support is retained for old streams, and two cases still
  *encode* RZC1: the ``bz2``/``lzma`` backends (a strong generic
  entropy stage beats byte-plane structure when the caller asked for
  maximum compression) and arrays below ``_RZC1_CUTOFF`` elements
  (per-plane framing would dominate the payload).
"""

from __future__ import annotations

import bz2
import lzma
import zlib

import numpy as np

from ..native import pool as _pool
from .zigzag import zigzag_decode, zigzag_encode

__all__ = ["encode_residuals", "decode_residuals", "LOSSLESS_BACKENDS"]

_MAGIC = b"RZC1"
_MAGIC2 = b"RZC2"

_COMPRESSORS = {
    "zlib": lambda b, lvl: zlib.compress(b, lvl),
    "bz2": lambda b, lvl: bz2.compress(b, min(max(lvl, 1), 9)),
    "lzma": lambda b, lvl: lzma.compress(b, preset=min(max(lvl, 0), 9)),
    "none": lambda b, lvl: b,
}


def _deflate_plane(plane: np.ndarray, level: int) -> bytes:
    """DEFLATE one byte plane; any zlib stream, so decode is unchanged.

    At low effort, greedy level-1 LZ matching on near-incompressible
    byte planes is all cost and (measured on the bench grid) no gain —
    ``Z_HUFFMAN_ONLY`` is both smaller and ~2x faster there, because a
    byte plane's redundancy is almost entirely first-order.  High
    levels try the default match-searching strategy *as well* and keep
    the smaller stream, so more effort can never produce a larger
    plane than less effort did.
    """
    obj = zlib.compressobj(1, zlib.DEFLATED, zlib.MAX_WBITS, 9,
                           zlib.Z_HUFFMAN_ONLY)
    huff = obj.compress(plane) + obj.flush()
    if level <= 4:
        return huff
    deep = zlib.compress(plane, min(level, 9))
    return deep if len(deep) < len(huff) else huff
_DECOMPRESSORS = {
    "zlib": zlib.decompress,
    "bz2": bz2.decompress,
    "lzma": lzma.decompress,
    "none": lambda b: b,
}

LOSSLESS_BACKENDS = tuple(sorted(_COMPRESSORS))

_BACKEND_IDS = {name: i for i, name in enumerate(sorted(_COMPRESSORS))}
_BACKEND_NAMES = {i: name for name, i in _BACKEND_IDS.items()}

# plane encodings
_P_CONST = 0
_P_RAW = 1
_P_SPARSE = 2
_P_BITPACK = 3
_P_ZLIB = 4

_CHUNK = 32  # values per BITPACK chunk; 32*w bits is always whole bytes

#: below this many residuals, RZC2's per-plane framing dominates the
#: payload and RZC1's single squeezed stream is both smaller and no
#: slower, so tiny arrays keep the legacy format on encode too
_RZC1_CUTOFF = 2048

#: bit length of every possible byte value, for vectorized width lookup
_BITLEN8 = np.array([int(v).bit_length() for v in range(256)],
                    dtype=np.uint8)

#: per byte-plane count, the narrowest unsigned dtype holding the codes
_CODE_DTYPES = [np.dtype(f"u{b}") for b in (1, 1, 2, 4, 4, 8, 8, 8, 8)]


def encode_residuals(residuals: np.ndarray, backend: str = "zlib",
                     level: int = 1) -> bytes:
    """Encode a signed int64 residual array to a self-describing stream."""
    if backend not in _COMPRESSORS:
        raise ValueError(f"unknown lossless backend {backend!r}; "
                         f"choose from {LOSSLESS_BACKENDS}")
    if backend in ("bz2", "lzma") or residuals.size < _RZC1_CUTOFF:
        return _encode_rzc1(residuals, backend, level)
    return _encode_rzc2(residuals, backend, level)


def decode_residuals(stream: bytes | memoryview) -> np.ndarray:
    """Decode a stream produced by :func:`encode_residuals` to int64."""
    view = memoryview(stream)
    magic = bytes(view[:4])
    if magic == _MAGIC2:
        return _decode_rzc2(view)
    if magic == _MAGIC:
        return _decode_rzc1(view)
    raise ValueError("not a residual stream (bad magic)")


# ----------------------------------------------------------------------
# RZC2: byte planes
# ----------------------------------------------------------------------
def _encode_rzc2(residuals: np.ndarray, backend: str, level: int) -> bytes:
    r = np.ascontiguousarray(residuals, dtype=np.int64).reshape(-1)
    n = r.size
    allow_zlib = backend == "zlib"
    header = bytearray(_MAGIC2)
    header += np.uint64(n).tobytes()
    if n == 0:
        header.append(0)
        header.append(_BACKEND_IDS[backend])
        return bytes(header)
    zz = _pool.acquire(n, np.uint64)
    scratch = _pool.acquire(n, np.uint64)
    plane_buf = _pool.acquire(n, np.uint8)
    try:
        codes = zigzag_encode(r, out=zz, scratch=scratch)
        maxc = int(codes.max())
        nplanes = (maxc.bit_length() + 7) // 8 if maxc else 0
        header.append(nplanes)
        header.append(_BACKEND_IDS[backend])
        planes8 = codes.astype("<u8", copy=False).view(np.uint8).reshape(n, 8)
        out = bytearray(bytes(header))
        for p in range(nplanes):
            np.copyto(plane_buf, planes8[:, p])
            tag, payload = _encode_plane(plane_buf, level, allow_zlib)
            out.append(tag)
            out += np.uint64(len(payload)).tobytes()
            out += payload
        return bytes(out)
    finally:
        _pool.release(zz, scratch, plane_buf)


def _encode_plane(plane: np.ndarray, level: int,
                  allow_zlib: bool) -> tuple[int, bytes]:
    """Pick the cheapest encoding for one contiguous uint8 plane.

    One ``bincount`` pass supplies the constant/sparse/entropy
    statistics; the per-chunk maxima reshape the plane in place when the
    length is a whole number of chunks (the common case for block-sized
    buffers), so the scratch copy only happens on ragged tails.
    """
    n = plane.size
    nchunks = (n + _CHUNK - 1) // _CHUNK
    counts = np.bincount(plane, minlength=256)
    k = n - int(counts[0])
    if k == 0:
        return _P_CONST, b"\x00"
    nz = np.flatnonzero(counts)
    mx = int(nz[-1])
    if counts[0] == 0 and nz.size == 1:
        return _P_CONST, bytes([mx])
    sparse_cost = 4 + 5 * k if n < 2**32 else n + 1
    raw_cost = n
    best = min(sparse_cost, raw_cost)
    # Huffman-only deflate (all that low effort tries) spends at least
    # one bit per byte, so it cannot win once ``best`` is that small
    if allow_zlib and (level > 4 or (n + 7) // 8 < best):
        if n < 1024:
            # tiny plane: DEFLATE costs microseconds and the
            # first-order entropy estimate misses run/positional
            # structure, so just try it
            attempt = True
        else:
            probs = counts[nz] / n
            entropy = float(-(probs * np.log2(probs)).sum())
            estimate = n * entropy / 8.0 * 1.05 + 12
            # DEFLATE is one C call — cheaper than even *scanning* the
            # plane for a BITPACK body — so try it whenever the
            # first-order estimate says it can win outright; at low
            # effort demand real slack so near-incompressible planes
            # (the usual LSB noise plane) skip straight to RAW
            margin = 0.8 if level <= 4 else 1.0
            attempt = estimate < margin * best
        if attempt:
            blob = _deflate_plane(plane, max(level, 1))
            if len(blob) < best:
                # a winning DEFLATE body skips the chunk-width scan
                # entirely; BITPACK only out-costs it on planes whose
                # chunks are locally narrow but globally diverse, and
                # those fail the entropy gate above
                return _P_ZLIB, blob
    if sparse_cost <= (nchunks + 1) // 2:
        # BITPACK's width nibbles alone cost that much: skip the scan
        return _sparse_plane(plane)
    if n % _CHUNK == 0:
        full = plane
        pooled = None
    else:
        pooled = _pool.acquire(nchunks * _CHUNK, np.uint8)
        pooled[:n] = plane
        pooled[n:] = 0
        full = pooled
    try:
        chunk_max = full.reshape(nchunks, _CHUNK).max(axis=1)
        widths = _BITLEN8[chunk_max]
        pack_cost = (nchunks + 1) // 2 + 4 * int(widths.sum(dtype=np.int64))
        if sparse_cost <= min(pack_cost, raw_cost):
            return _sparse_plane(plane)
        if pack_cost < raw_cost:
            return _P_BITPACK, _bitpack_chunks(full, nchunks, widths)
        return _P_RAW, plane.tobytes()
    finally:
        if pooled is not None:
            _pool.release(pooled)


def _sparse_plane(plane: np.ndarray) -> tuple[int, bytes]:
    pos = np.flatnonzero(plane).astype("<u4")
    return _P_SPARSE, (np.uint32(pos.size).tobytes() + pos.tobytes()
                       + plane[pos].tobytes())


def _bitpack_chunks(padded: np.ndarray, nchunks: int,
                    widths: np.ndarray) -> bytes:
    """Pack 32-value chunks at their own widths, grouped by width.

    Layout: nibble-packed per-chunk widths, then — for each width ``w``
    in ascending order — the ``4 * w``-byte payloads of every chunk of
    that width, concatenated; a payload is each value's low ``w`` bits,
    MSB first.  Each group of eight values is shift-or'ed into one
    uint64 word whose low ``w`` bytes, big-endian, are exactly the
    group's ``8 * w`` bits.
    """
    counts = np.bincount(widths, minlength=9)
    chunks = padded.reshape(nchunks, _CHUNK)
    parts = []
    for w in range(1, 9):
        if not counts[w]:
            continue
        sel = chunks if counts[w] == nchunks else chunks[widths == w]
        if w == 8:
            parts.append(sel.tobytes())
            continue
        groups = sel.reshape(-1, 8)
        words = np.zeros(len(groups), dtype=np.uint64)
        for k in range(8):
            words |= groups[:, k].astype(np.uint64) << (w * (7 - k))
        be = words.astype(">u8").view(np.uint8).reshape(-1, 8)
        parts.append(be[:, 8 - w:].tobytes())
    # nibble-pack widths (values 0..8 fit in 4 bits)
    pad_w = np.zeros(2 * ((nchunks + 1) // 2), dtype=np.uint8)
    pad_w[:nchunks] = widths
    nibbles = (pad_w[0::2] << 4) | pad_w[1::2]
    return b"".join([nibbles.tobytes(), *parts])


def _bitunpack_chunks(buf: memoryview, n: int, out: np.ndarray) -> None:
    """Inverse of :func:`_bitpack_chunks` into ``out`` (n uint8)."""
    nchunks = (n + _CHUNK - 1) // _CHUNK
    nwb = (nchunks + 1) // 2
    if len(buf) < nwb:
        raise ValueError("corrupt residual stream: bitpack size mismatch")
    nibbles = np.frombuffer(buf[:nwb], dtype=np.uint8)
    widths = np.empty(2 * nwb, dtype=np.uint8)
    widths[0::2] = nibbles >> 4
    widths[1::2] = nibbles & 0x0F
    widths = widths[:nchunks]
    if np.any(widths > 8):
        raise ValueError("corrupt residual stream: bitpack width > 8")
    counts = np.bincount(widths, minlength=9)
    body = np.frombuffer(buf[nwb:], dtype=np.uint8)
    if body.size != 4 * int(np.arange(9).dot(counts)):
        raise ValueError("corrupt residual stream: bitpack size mismatch")
    chunks = np.zeros((nchunks, _CHUNK), dtype=np.uint8)
    pos = 0
    for w in range(1, 9):
        if not counts[w]:
            continue
        size = 4 * w * int(counts[w])
        vals = body[pos:pos + size]
        pos += size
        if w < 8:
            be = np.zeros((size // w, 8), dtype=np.uint8)
            be[:, 8 - w:] = vals.reshape(-1, w)
            words = be.view(">u8").astype(np.uint64).reshape(-1)
            vals = np.empty((words.size, 8), dtype=np.uint8)
            for k in range(8):
                vals[:, k] = (words >> (w * (7 - k))) & ((1 << w) - 1)
        rows = slice(None) if counts[w] == nchunks else widths == w
        chunks[rows] = vals.reshape(-1, _CHUNK)
    out[:] = chunks.reshape(-1)[:n]


def _decode_rzc2(view: memoryview) -> np.ndarray:
    n = int(np.frombuffer(view[4:12], dtype=np.uint64)[0])
    nplanes = view[12]
    backend_id = view[13]
    if backend_id not in _BACKEND_NAMES:
        raise ValueError(f"unknown lossless backend id {backend_id}")
    if nplanes > 8:
        raise ValueError(f"corrupt residual stream: {nplanes} byte planes")
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    # codes are rebuilt arithmetically in the narrowest unsigned width
    # that holds them — widen plane 0, then shift-or each higher plane
    # in — and zigzag-decoded there, so only the result is int64
    dt = _CODE_DTYPES[nplanes]
    codes = _pool.acquire(n, dt)
    scratch = _pool.acquire(n, dt)
    plane_buf = _pool.acquire(n, np.uint8)
    try:
        if nplanes == 0:
            codes[:] = 0
        pos = 14
        for p in range(nplanes):
            if pos + 9 > len(view):
                raise ValueError("corrupt residual stream: truncated plane")
            tag = view[pos]
            plen = int(np.frombuffer(view[pos + 1:pos + 9],
                                     dtype=np.uint64)[0])
            pos += 9
            payload = view[pos:pos + plen]
            if len(payload) != plen:
                raise ValueError("corrupt residual stream: truncated plane")
            pos += plen
            _decode_plane(tag, payload, n, plane_buf)
            if p == 0:
                codes[:] = plane_buf
            else:
                scratch[:] = plane_buf
                np.left_shift(scratch, 8 * p, out=scratch)
                np.bitwise_or(codes, scratch, out=codes)
        if pos != len(view):
            raise ValueError("corrupt residual stream: trailing bytes")
        return zigzag_decode(codes, out=codes,
                             scratch=scratch).astype(np.int64)
    finally:
        _pool.release(codes, scratch, plane_buf)


def _decode_plane(tag: int, payload: memoryview, n: int,
                  out: np.ndarray) -> None:
    if tag == _P_CONST:
        if len(payload) != 1:
            raise ValueError("corrupt residual stream: bad const plane")
        out[:] = payload[0]
    elif tag == _P_RAW:
        if len(payload) != n:
            raise ValueError("corrupt residual stream: bad raw plane")
        out[:] = np.frombuffer(payload, dtype=np.uint8)
    elif tag == _P_SPARSE:
        if len(payload) < 4:
            raise ValueError("corrupt residual stream: bad sparse plane")
        k = int(np.frombuffer(payload[:4], dtype=np.uint32)[0])
        if len(payload) != 4 + 5 * k:
            raise ValueError("corrupt residual stream: bad sparse plane")
        positions = np.frombuffer(payload[4:4 + 4 * k], dtype="<u4")
        if k and int(positions.max()) >= n:
            raise ValueError("corrupt residual stream: sparse index range")
        out[:] = 0
        out[positions.astype(np.int64)] = np.frombuffer(
            payload[4 + 4 * k:], dtype=np.uint8)
    elif tag == _P_BITPACK:
        _bitunpack_chunks(payload, n, out)
    elif tag == _P_ZLIB:
        # inflate at most n bytes: a forged plane cannot balloon
        inflater = zlib.decompressobj()
        raw = inflater.decompress(payload, n)
        if len(raw) != n or inflater.unconsumed_tail or not inflater.eof:
            raise ValueError("corrupt residual stream: bad zlib plane")
        out[:] = np.frombuffer(raw, dtype=np.uint8)
    else:
        raise ValueError(f"unknown plane encoding {tag}")


# ----------------------------------------------------------------------
# RZC1: legacy two-stream layout
# ----------------------------------------------------------------------
def _encode_rzc1(residuals: np.ndarray, backend: str, level: int) -> bytes:
    codes = zigzag_encode(
        np.ascontiguousarray(residuals, dtype=np.int64)).reshape(-1)
    n = codes.size
    stream_a = np.minimum(codes, np.uint64(255)).astype(np.uint8)
    big = codes >= np.uint64(255)
    stream_b = codes[big].astype("<u8").tobytes()
    payload = stream_a.tobytes() + stream_b
    compressed = _COMPRESSORS[backend](payload, level)
    header = (
        _MAGIC
        + np.uint64(n).tobytes()
        + np.uint64(int(big.sum())).tobytes()
        + bytes([_BACKEND_IDS[backend]])
    )
    return header + compressed


def _decode_rzc1(view: memoryview) -> np.ndarray:
    n = int(np.frombuffer(view[4:12], dtype=np.uint64)[0])
    n_big = int(np.frombuffer(view[12:20], dtype=np.uint64)[0])
    backend_id = view[20]
    backend = _BACKEND_NAMES.get(backend_id)
    if backend is None:
        raise ValueError(f"unknown lossless backend id {backend_id}")
    payload = _DECOMPRESSORS[backend](bytes(view[21:]))
    expected = n + 8 * n_big
    if len(payload) != expected:
        raise ValueError(
            f"corrupt residual stream: payload {len(payload)} != {expected}"
        )
    stream_a = np.frombuffer(payload, dtype=np.uint8, count=n)
    codes = stream_a.astype(np.uint64)
    if n_big:
        stream_b = np.frombuffer(payload, dtype="<u8", offset=n, count=n_big)
        codes[stream_a == 255] = stream_b
    return zigzag_decode(codes)
