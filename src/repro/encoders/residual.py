"""Byte-plane residual codec for prediction residuals.

Prediction-based compressors (our sz, zfp, mgard, fpzip natives)
produce signed residual arrays dominated by values near zero.  Two
stream formats live here:

* **RZC2** (current): residuals are narrowed once to the smallest
  signed width that holds their range, zigzag mapped in that width, and
  the codes are split into little-endian *byte planes*; only the planes
  up to the largest code's byte length are stored, and each plane
  independently picks the cheapest of five encodings from byte
  statistics computed in single vectorized passes:

  - ``CONST`` — every byte equal: 1 byte;
  - ``RAW`` — verbatim;
  - ``SPARSE`` — positions + values of the nonzero bytes;
  - ``BITPACK`` — 32-value chunks packed at each chunk's own bit width
    (32·w bits is always whole bytes), eight values per uint64 word;
  - ``ZLIB`` — DEFLATE, with the strategy chosen per plane: planes
    made of runs (bytes equal to their predecessor) go straight to
    ``Z_RLE``, the rest to ``Z_HUFFMAN_ONLY`` — tried only when a
    byte-histogram entropy estimate predicts it beats the structural
    encodings by enough to be worth its CPU cost — and a run fraction
    in the band between the two is settled by deflating a small
    sample both ways.  High effort levels try every strategy and keep
    the smallest.  Any zlib stream decodes the same way, so the choice
    changes what the encoder writes, not the format.

  A plane's nonzero count alone settles the empty planes and, at low
  effort, the near-empty ones that no deflate stream can undercut
  (SPARSE); its run count settles the constant ones (CONST) and the
  deflate strategy.  Only planes bound for Huffman-only deflate build
  a byte histogram, from one ``bincount`` over the plane's uint16 pair
  view.

  Decode rebuilds the codes in the narrowest unsigned dtype the plane
  count allows and widens them to int64 once.  Both directions run on
  pooled scratch (:mod:`repro.native.pool`) and never scan
  byte-by-byte in Python.

* **RZC1** (legacy): ``min(code, 255)`` bytes plus an 8-byte overflow
  stream, the whole payload squeezed by a ``zlib``-family backend.
  Decode support is retained for old streams, and RZC1 is still
  *encoded* in two cases: by the ``bz2``/``lzma`` backends (a strong
  generic entropy stage beats byte-plane structure when the caller
  asked for maximum compression), and for arrays below
  ``_RZC1_CUTOFF`` elements, where the zlib backend encodes both
  formats and keeps the smaller stream (per-plane framing can
  dominate a small payload, and run-heavy planes can still win).
  Decode caps the inflated payload at its declared size.
"""

from __future__ import annotations

import bz2
import lzma
import sys
import zlib

import numpy as np

from ..core.status import CorruptStreamError
from ..native import pool as _pool
from .zigzag import zigzag_decode, zigzag_encode

__all__ = ["encode_residuals", "decode_residuals", "LOSSLESS_BACKENDS",
           "CorruptResidualError"]

_MAGIC = b"RZC1"
_MAGIC2 = b"RZC2"

_COMPRESSORS = {
    "zlib": lambda b, lvl: zlib.compress(b, lvl),
    "bz2": lambda b, lvl: bz2.compress(b, min(max(lvl, 1), 9)),
    "lzma": lambda b, lvl: lzma.compress(b, preset=min(max(lvl, 0), 9)),
    "none": lambda b, lvl: b,
}


def _deflate(plane: np.ndarray, strategy: int, level: int = 1) -> bytes:
    obj = zlib.compressobj(level, zlib.DEFLATED, zlib.MAX_WBITS, 9, strategy)
    return obj.compress(plane) + obj.flush()


def _deflate_plane(plane: np.ndarray, level: int, strategy: int) -> bytes:
    """DEFLATE one byte plane; any zlib stream, so decode is unchanged.

    At low effort the plane is deflated once, with the strategy the
    chooser picked: ``Z_RLE`` for planes made of runs, where it is both
    smaller and faster, else ``Z_HUFFMAN_ONLY`` (greedy LZ matching on
    a near-incompressible byte plane is all cost and no gain, because a
    byte plane's redundancy is almost entirely first-order or runs).
    High levels try both and the default match-searching strategy too
    and keep the smallest stream, so more effort can never produce a
    larger plane than less effort did.
    """
    if level <= 4:
        return _deflate(plane, strategy)
    return min((_deflate(plane, zlib.Z_HUFFMAN_ONLY),
                _deflate(plane, zlib.Z_RLE),
                _deflate(plane, zlib.Z_DEFAULT_STRATEGY, min(level, 9))),
               key=len)


def _deflate_floor(n: int) -> int:
    """A lower bound on any zlib stream of ``n`` bytes.

    Every DEFLATE symbol covers at most 258 bytes (a match) and costs
    at least two bits (a length and a distance code, each at least one
    bit long once the literal/length alphabet holds the end-of-block
    symbol too); literals cost at least a bit per byte.  So the body
    needs at least ``n / 1032`` bytes, plus the 2-byte zlib header and
    4-byte Adler-32 trailer.
    """
    return 6 + n // 1032


def _run_count(plane: np.ndarray) -> int:
    """How many bytes equal their predecessor."""
    return int(np.count_nonzero(plane[1:] == plane[:-1]))


def _rle_first(plane: np.ndarray, runs: int) -> bool:
    """Whether low effort should deflate ``plane`` with ``Z_RLE``.

    The run fraction settles both clear ends.  Inside the band between
    them neither strategy wins reliably (measured on the bench grid's
    chunk planes: Huffman-only won by 8-10 % at run fractions up to
    0.54, ``Z_RLE`` by 10-16 % from 0.40), so both deflate a sample of
    four strided 2 KiB slices and the smaller one decides.
    """
    n = plane.size
    if runs >= _RLE_SURE * n:
        return True
    if runs < _RLE_NEVER * n:
        return False
    if n > _SAMPLE:
        step, part = n // 4, _SAMPLE // 4
        plane = np.concatenate([plane[i * step:i * step + part]
                                for i in range(4)])
    return (len(_deflate(plane, zlib.Z_RLE))
            < len(_deflate(plane, zlib.Z_HUFFMAN_ONLY)))


#: one-shot decompressor objects, so RZC1 decode can cap its output
_INFLATERS = {
    "zlib": zlib.decompressobj,
    "bz2": bz2.BZ2Decompressor,
    "lzma": lzma.LZMADecompressor,
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

#: below this many residuals RZC2's per-plane framing can dominate the
#: payload, so the zlib backend encodes both formats and keeps the
#: smaller stream (the others always take RZC1)
_RZC1_CUTOFF = 2048

#: run fractions (bytes equal to their predecessor, per byte) at and
#: above which low effort deflates a plane with ``Z_RLE``, and below
#: which with ``Z_HUFFMAN_ONLY``; a sampled trial decides in between
_RLE_SURE = 0.6
_RLE_NEVER = 0.3
#: bytes of the sampled trial: four strided slices of a quarter each
_SAMPLE = 8192

#: bit length of every possible byte value, for vectorized width lookup
_BITLEN8 = np.array([int(v).bit_length() for v in range(256)],
                    dtype=np.uint8)

#: per byte-plane count, the narrowest unsigned dtype holding the codes
_CODE_DTYPES = [np.dtype(f"u{b}") for b in (1, 1, 2, 4, 4, 8, 8, 8, 8)]

_INT64_MAX = 2**63 - 1

#: plane ``p`` of a native code is byte ``p`` of its uint8 view here,
#: byte ``width - 1 - p`` on a big-endian host
_LITTLE = sys.byteorder == "little"


def encode_residuals(residuals: np.ndarray, backend: str = "zlib",
                     level: int = 1) -> bytes:
    """Encode a signed integer residual array to a self-describing stream.

    Any integer dtype, byte order or memory layout is accepted; the
    stream depends only on the values.  Raises ``TypeError`` for
    non-integer input and ``ValueError`` for unsigned values beyond the
    int64 range (decode returns int64).
    """
    if backend not in _COMPRESSORS:
        raise ValueError(f"unknown lossless backend {backend!r}; "
                         f"choose from {LOSSLESS_BACKENDS}")
    r = np.asarray(residuals)
    if r.dtype.kind not in "iu":
        raise TypeError(f"residuals must be integers, got {r.dtype}")
    lo, hi = (int(r.min()), int(r.max())) if r.size else (0, 0)
    if hi > _INT64_MAX:
        raise ValueError(f"residual {hi} exceeds the int64 range")
    if backend in ("bz2", "lzma") or r.size < _RZC1_CUTOFF:
        legacy = _encode_rzc1(r, backend, level)
        if backend != "zlib":
            return legacy
        planes = _encode_rzc2(r, lo, hi, backend, level)
        return planes if len(planes) < len(legacy) else legacy
    return _encode_rzc2(r, lo, hi, backend, level)


class CorruptResidualError(CorruptStreamError, ValueError):
    """A residual stream failed validation.

    A :class:`~repro.core.status.CorruptStreamError`, so the natives
    surface it typed as they are, and a ``ValueError`` like every other
    rejection in the encoders.
    """


def decode_residuals(stream: bytes | memoryview,
                     count: int | None = None) -> np.ndarray:
    """Decode a stream produced by :func:`encode_residuals` to int64.

    ``count`` is the number of residuals the caller expects.  A stream
    whose header declares another count is rejected before any buffer
    is acquired or any payload inflated.  Every rejection raises
    :class:`CorruptResidualError`.
    """
    view = memoryview(stream)
    magic = bytes(view[:4])
    if magic not in (_MAGIC, _MAGIC2):
        raise CorruptResidualError("not a residual stream (bad magic)")
    if len(view) < 12:
        raise CorruptResidualError("corrupt residual stream: truncated header")
    n = int(np.frombuffer(view[4:12], dtype=np.uint64)[0])
    if count is not None and n != count:
        raise CorruptResidualError(f"corrupt residual stream: declares {n} "
                                   f"residuals, expected {count}")
    try:
        if magic == _MAGIC2:
            return _decode_rzc2(view, n)
        return _decode_rzc1(view, n)
    except (ValueError, zlib.error) as e:
        raise CorruptResidualError(str(e)) from None


# ----------------------------------------------------------------------
# RZC2: byte planes
# ----------------------------------------------------------------------
def _encode_rzc2(r: np.ndarray, lo: int, hi: int, backend: str,
                 level: int) -> bytes:
    n = r.size
    allow_zlib = backend == "zlib"
    header = bytearray(_MAGIC2)
    header += np.uint64(n).tobytes()
    if n == 0:
        header.append(0)
        header.append(_BACKEND_IDS[backend])
        return bytes(header)
    # zigzag codes of [lo, hi] run up to max(2·hi, -2·lo - 1); the
    # narrowest signed width holding the range holds them unsigned
    maxc = max(2 * hi, -2 * lo - 1)
    nplanes = (maxc.bit_length() + 7) // 8
    width = _narrow_width(lo, hi)
    codes = _pool.acquire(n, f"i{width}")
    scratch = _pool.acquire(n, f"i{width}")
    plane_buf = _pool.acquire(n, np.uint8)
    try:
        np.copyto(codes.reshape(r.shape), r, casting="unsafe")
        zigzag_encode(codes, out=codes, scratch=scratch)
        header.append(nplanes)
        header.append(_BACKEND_IDS[backend])
        planes = codes.view(np.uint8).reshape(n, width)
        out = bytearray(bytes(header))
        for p in range(nplanes):
            np.copyto(plane_buf, planes[:, p if _LITTLE else width - 1 - p])
            tag, payload = _encode_plane(plane_buf, level, allow_zlib)
            out.append(tag)
            out += np.uint64(len(payload)).tobytes()
            out += payload
        return bytes(out)
    finally:
        _pool.release(codes, scratch, plane_buf)


def _narrow_width(lo: int, hi: int) -> int:
    """Bytes of the narrowest signed integer holding ``lo`` and ``hi``."""
    for width in (1, 2, 4):
        bound = 1 << (8 * width - 1)
        if -bound <= lo and hi < bound:
            return width
    return 8


def _byte_histogram(plane: np.ndarray) -> np.ndarray:
    """``np.bincount(plane, minlength=256)`` at half the widening cost.

    ``bincount`` widens its input to intp first, so it counts the
    plane's byte *pairs* (a uint16 view, half as many values) into
    65536 bins and folds them: each byte value's count is its row sum
    (one byte of the pair) plus its column sum (the other).  An odd
    trailing byte is added on its own.
    """
    n = plane.size
    pairs = np.bincount(plane[:n - n % 2].view(np.uint16),
                        minlength=65536).reshape(256, 256)
    counts = pairs.sum(axis=0) + pairs.sum(axis=1)
    if n % 2:
        counts[plane[-1]] += 1
    return counts


def _encode_plane(plane: np.ndarray, level: int,
                  allow_zlib: bool) -> tuple[int, bytes]:
    """Pick the cheapest encoding for one contiguous uint8 plane.

    The nonzero count settles empty planes and, at low effort, sparse
    ones outright; otherwise the run count settles constant planes
    and, at low effort, picks the deflate strategy.  A plane made of
    runs goes straight to ``Z_RLE``; the rest take one byte histogram
    for the entropy estimate that gates Huffman-only deflate.  The
    per-chunk maxima reshape the plane in place when the length is a
    whole number of chunks (the common case for block-sized buffers),
    so the scratch copy only happens on ragged tails.
    """
    n = plane.size
    nchunks = (n + _CHUNK - 1) // _CHUNK
    k = int(np.count_nonzero(plane))
    if k == 0:
        return _P_CONST, b"\x00"
    sparse_cost = 4 + 5 * k if n < 2**32 else n + 1
    if level <= 4 and sparse_cost <= min((nchunks + 1) // 2,
                                         _deflate_floor(n)):
        # exactly where the full chooser below ends up, without the
        # run count or the histogram: k < n rules out a nonzero CONST,
        # no deflate stream undercuts _deflate_floor(n), and then the
        # width-scan gate fires
        return _sparse_plane(plane)
    runs = _run_count(plane)
    if runs == n - 1:
        return _P_CONST, plane[:1].tobytes()  # k > 0: every byte nonzero
    raw_cost = n
    best = min(sparse_cost, raw_cost)
    # no floor gates the deflate attempt: at low effort, once the fast
    # path above has not fired, only planes under a few hundred bytes
    # can have best <= _deflate_floor(n); and a plane left to
    # Huffman-only (under 60 % runs) has over n/5 nonzero bytes, so its
    # best is RAW, far above the bit per byte Huffman-only spends
    if allow_zlib and level <= 4 and _rle_first(plane, runs):
        attempt, strategy = True, zlib.Z_RLE
    elif allow_zlib:
        strategy = zlib.Z_HUFFMAN_ONLY
        if n < 1024 or (level > 4 and runs >= _RLE_NEVER * n):
            # tiny plane: DEFLATE costs microseconds and the
            # first-order entropy estimate misses run/positional
            # structure, so just try it; high effort tries every plane
            # that low effort might deflate with Z_RLE
            attempt = True
        else:
            counts = _byte_histogram(plane)
            probs = counts[counts > 0] / n
            entropy = float(-(probs * np.log2(probs)).sum())
            estimate = n * entropy / 8.0 * 1.05 + 12
            # DEFLATE is one C call — cheaper than even *scanning* the
            # plane for a BITPACK body — so try it whenever the
            # first-order estimate says it can win outright; at low
            # effort demand real slack so near-incompressible planes
            # (the usual LSB noise plane) skip straight to RAW
            margin = 0.8 if level <= 4 else 1.0
            attempt = estimate < margin * best
    else:
        attempt = False
    if attempt:
        blob = _deflate_plane(plane, level, strategy)
        if len(blob) < best:
            # a winning DEFLATE body skips the chunk-width scan
            # entirely; BITPACK only out-costs it on planes whose
            # chunks are locally narrow but globally diverse, and
            # those have few runs and fail the entropy gate above
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
    # nonzero() has a fast path for bool input only: the mask pass
    # costs less than what it saves (7.8 -> 1.2 ms on a 3M-byte plane)
    pos = np.flatnonzero(plane != 0).astype("<u4")
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


def _decode_rzc2(view: memoryview, n: int) -> np.ndarray:
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


def _decode_rzc1(view: memoryview, n: int) -> np.ndarray:
    n_big = int(np.frombuffer(view[12:20], dtype=np.uint64)[0])
    backend_id = view[20]
    backend = _BACKEND_NAMES.get(backend_id)
    if backend is None:
        raise ValueError(f"unknown lossless backend id {backend_id}")
    expected = n + 8 * n_big
    payload = _inflate_at_most(backend, view[21:], expected)
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


def _inflate_at_most(backend: str, data: memoryview, expected: int) -> bytes:
    """Decompress ``data``, stopping one byte past ``expected``.

    A forged header cannot make a small stream balloon: the output is
    capped before it is allocated.  The one byte of slack lets an
    overlong stream show itself (and keeps zlib from reading a zero
    cap as "no limit").  Left-over input or a missing end-of-stream
    marker is rejected here; a short output by the caller.
    """
    if backend == "none":
        return bytes(data)
    inflater = _INFLATERS[backend]()
    try:
        payload = inflater.decompress(data, expected + 1)
    except (zlib.error, OSError, EOFError, lzma.LZMAError) as e:
        raise ValueError(f"corrupt residual stream: {e}") from None
    if (not inflater.eof or inflater.unused_data
            or getattr(inflater, "unconsumed_tail", b"")):
        raise ValueError("corrupt residual stream: bad compressed payload")
    return payload
