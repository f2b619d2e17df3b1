"""Byte-plane residual codec for prediction residuals.

Prediction-based compressors (our sz, zfp, mgard, fpzip natives)
produce signed residual arrays dominated by values near zero.  Two
stream formats live here:

* **RZC2** (written for every backend and every size): residuals are
  narrowed once to the smallest
  signed width that holds their range, zigzag mapped in that width, and
  the codes are split into little-endian *byte planes*; only the planes
  up to the largest code's byte length are stored, and each plane
  independently picks the cheapest of seven encodings from byte
  statistics computed in single vectorized passes:

  - ``CONST`` — every byte equal: 1 byte;
  - ``RAW`` — verbatim;
  - ``SPARSE`` — positions + values of the nonzero bytes;
  - ``BITPACK`` — 32-value chunks packed at each chunk's own bit width
    (32·w bits is always whole bytes), eight values per uint64 word;
  - ``ZLIB`` — the plane compressed whole by the header's backend.
    For ``zlib`` that is DEFLATE, with the strategy chosen per plane:
    planes made of runs (bytes equal to their predecessor) go straight
    to ``Z_RLE``, the rest to ``Z_HUFFMAN_ONLY``, and a run fraction in
    the band between the two is settled by deflating a small sample
    both ways.  High effort levels, and planes under ``_SMALL_PLANE``
    bytes at any level, try every strategy and keep the smallest.  Any
    zlib stream decodes the same way, so the choice changes what the
    encoder writes, not the format.  ``bz2`` and ``lzma`` compress
    every plane not settled by its counts and keep the result where it
    undercuts RAW, SPARSE and BITPACK; ``none`` never writes this tag;
  - ``NIBBLE`` — the plane's low nibbles, two per byte, stored raw;
    any odd last byte; then its high nibbles, two per byte, deflated
    Huffman-only; ``zlib`` writes it.  It is for noise planes: when a
    byte's low nibble still carries ``_SPLIT_BITS`` of its four bits
    once its high nibble is known, Huffman coding it gains next to
    nothing, so low effort deflates only the high half, in half the
    time.  High effort also deflates the whole plane and keeps the
    smaller.  The high half decodes with the header's backend too;
  - ``PACKED`` — a low-width plane at ``w`` of 2 or 4 bits a value: the
    byte ``w``, a uint64 body length, the body, then the tail.  The
    body is ``min(v, esc)`` for ``esc = 2**w - 1``, ``8 // w`` values a
    byte, little end first; the tail is ``v - esc`` of every escaped
    value (those at ``esc`` or above) in order, and empty when none
    escapes.  Each is deflated with the strategy its own run fraction
    picks.  Deflate codes a byte per
    symbol and spends at least a bit on each, so packing 2 or 4 values
    a byte is both smaller and faster on planes whose values are mostly
    below 3 or 15.  ``zlib`` writes
    it, for planes of at least ``_SMALL_PLANE`` bytes; high effort also
    deflates the whole plane and keeps the smaller.  Body and tail
    decode with the header's backend.

  The gates, in order, for a plane no count settles: ``bz2`` and
  ``lzma`` compress it whole.  A ``zlib`` plane under ``_SMALL_PLANE``
  bytes is deflated every way.  A plane that packs (fewer than an
  eighth of its bytes reach 3, or else 15) is PACKED.  At low effort,
  a plane made of runs goes to ``Z_RLE``.  Only the rest build a byte
  histogram, from one ``bincount`` over the plane's uint16 pair view:
  deflate (split or whole) is attempted whenever the first-order
  entropy estimate from it undercuts the plane's best structural cost
  (RAW or SPARSE), and the split's conditional entropy folds out of
  the same histogram.  A winning deflate body skips the BITPACK width
  scan.

  A plane's nonzero count alone settles the empty planes and, at low
  effort, the near-empty ones that no deflate stream can undercut
  (SPARSE); its run count settles the constant ones (CONST) and the
  deflate strategy.

  Decode rebuilds the codes in the narrowest unsigned dtype the plane
  count allows and widens them to int64 once.  Both directions run on
  pooled scratch (:mod:`repro.native.pool`) and never scan
  byte-by-byte in Python.

* **RZC1** (legacy, decode-only): ``min(code, 255)`` bytes plus an
  8-byte overflow stream, the whole payload squeezed by the header's
  backend.  Nothing writes it any more; streams written by earlier
  encoders (every ``bz2``/``lzma`` request, and many arrays below 2048
  residuals) still decode, under the same output cap as every plane.
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

#: the strong backends, which compress a plane whole at ``level``
_PACKERS = {
    "bz2": lambda b, lvl: bz2.compress(b, min(max(lvl, 1), 9)),
    # the bare .lzma framing: a 13-byte header, where .xz adds ~60 bytes
    # of container per plane; the decoder detects either
    "lzma": lambda b, lvl: lzma.compress(b, lzma.FORMAT_ALONE,
                                         preset=min(max(lvl, 0), 9)),
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


def _strategy(data: np.ndarray) -> int:
    """Low effort's deflate strategy for a byte stream, from its runs."""
    if _rle_first(data, _run_count(data)):
        return zlib.Z_RLE
    return zlib.Z_HUFFMAN_ONLY


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


#: one-shot decompressor objects, so every decode can cap its output
_INFLATERS = {
    "zlib": zlib.decompressobj,
    "bz2": bz2.BZ2Decompressor,
    "lzma": lzma.LZMADecompressor,
}

#: a stream's backend byte is the backend's index here
LOSSLESS_BACKENDS = ("bz2", "lzma", "none", "zlib")

_BACKEND_IDS = {name: i for i, name in enumerate(LOSSLESS_BACKENDS)}
_BACKEND_NAMES = dict(enumerate(LOSSLESS_BACKENDS))

# plane encodings
_P_CONST = 0
_P_RAW = 1
_P_SPARSE = 2
_P_BITPACK = 3
_P_ZLIB = 4
_P_NIBBLE = 5
_P_PACKED = 6

_CHUNK = 32  # values per BITPACK chunk; 32*w bits is always whole bytes

#: planes shorter than this skip the gates and are deflated with every
#: strategy: that costs microseconds, and the entropy estimate and run
#: fraction miss the periodic structure only LZ matching finds there
_SMALL_PLANE = 2048

#: run fractions (bytes equal to their predecessor, per byte) at and
#: above which low effort deflates a plane with ``Z_RLE``, and below
#: which with ``Z_HUFFMAN_ONLY``; a sampled trial decides in between
_RLE_SURE = 0.6
_RLE_NEVER = 0.3
#: bytes of the sampled trial: four strided slices of a quarter each
_SAMPLE = 8192
#: entropy of a byte's low nibble given its high nibble (bits of 4) at
#: and above which a plane bound for Huffman-only deflate is split: its
#: low nibbles are stored raw and only its high nibbles deflated (NIBBLE)
_SPLIT_BITS = 3.8


def _unpack_table(w: int, word: str) -> np.ndarray:
    """Per packed byte, its ``8 // w`` values as one little-endian word,
    value ``i`` in byte ``i``."""
    b = np.arange(256)
    mask = (1 << w) - 1
    return sum(((b >> (w * i)) & mask) << (8 * i)
               for i in range(8 // w)).astype(word)


#: PACKED bits per value -> (the word holding its ``8 // w`` values a
#: byte each, the multiplier that packs them into the word's top byte,
#: the unpack table)
_PACK_KERNELS = {2: ("<u4", 0x01041040, _unpack_table(2, "<u4")),
                 4: ("<u2", 0x0110, _unpack_table(4, "<u2"))}
#: packed bytes unpacked per ``take`` call
_TAKE_SLICE = 1 << 16

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
    if backend not in _BACKEND_IDS:
        raise ValueError(f"unknown lossless backend {backend!r}; "
                         f"choose from {LOSSLESS_BACKENDS}")
    r = np.asarray(residuals)
    if r.dtype.kind not in "iu":
        raise TypeError(f"residuals must be integers, got {r.dtype}")
    lo, hi = (int(r.min()), int(r.max())) if r.size else (0, 0)
    if hi > _INT64_MAX:
        raise ValueError(f"residual {hi} exceeds the int64 range")
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
            tag, payload = _encode_plane(plane_buf, level, backend)
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


def _entropy(counts: np.ndarray, n: int) -> float:
    """Bits per symbol of a histogram of ``n`` symbols."""
    probs = counts[counts > 0] / n
    return float(-(probs * np.log2(probs)).sum())


def _split_nibbles(plane: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The plane's low and high nibbles, each packed two per byte.

    Byte ``i`` of either half holds the nibble of plane byte ``2i`` in
    its low four bits and that of byte ``2i + 1`` in its high four; an
    odd last byte is left out.  On the little-endian byte pairs, a
    0x0F0F mask leaves the pair's two nibbles eight bits apart, and
    OR-ing the word with itself shifted right by four packs them into
    its low byte.
    """
    pairs = plane[:plane.size - plane.size % 2].view("<u2")
    word = np.bitwise_and(pairs, 0x0F0F)
    fold = np.right_shift(word, 4)
    low = np.bitwise_or(word, fold, out=word).astype(np.uint8)
    np.right_shift(pairs, 4, out=word)
    np.bitwise_and(word, 0x0F0F, out=word)
    np.right_shift(word, 4, out=fold)
    high = np.bitwise_or(word, fold, out=word).astype(np.uint8)
    return low, high


def _nibble_plane(plane: np.ndarray) -> bytes:
    """NIBBLE body: the packed low nibbles raw, any odd last byte, then
    the packed high nibbles deflated Huffman-only."""
    low, high = _split_nibbles(plane)
    tail = plane[-1:].tobytes() if plane.size % 2 else b""
    return b"".join([low.tobytes(), tail,
                     _deflate(high, zlib.Z_HUFFMAN_ONLY)])


def _pack_width(plane: np.ndarray) -> int:
    """PACKED's bits per value: the smaller of 2 and 4 at which fewer
    than an eighth of the bytes reach the escape ``2**w - 1``, else 0."""
    for w in _PACK_KERNELS:
        if 8 * np.count_nonzero(plane >= (1 << w) - 1) < plane.size:
            return w
    return 0


def _packed_plane(plane: np.ndarray, w: int, level: int) -> bytes:
    """PACKED body: ``w``, the deflated body's uint64 length, the body
    (``min(v, esc)``, ``8 // w`` values a byte, little end first) and,
    if any value escaped, the tail (each escaped value's ``v - esc`` in
    order).  Each is deflated with the strategy its own runs pick:
    packing shortens the plane's runs, and a run of wide values is a
    run of escapes.

    The clipped values are packed in place: a little-endian word holds
    one value per byte, and multiplying it by the word whose bits sit at
    ``8 * (per - 1) - i * (8 - w)`` lands value ``i`` at bit ``i * w``
    of the top byte, with every other product below it or shifted out.
    """
    n = plane.size
    esc = (1 << w) - 1
    word, mul, _ = _PACK_KERNELS[w]
    per = 8 // w
    words = _pool.acquire(-(-n // per), word)
    try:
        clip = words.view(np.uint8)
        np.minimum(plane, esc, out=clip[:n])
        clip[n:] = 0
        np.multiply(words, mul, out=words)
        np.right_shift(words, 8 * (per - 1), out=words)
        packed = words.astype(np.uint8)
    finally:
        _pool.release(words)
    body = _deflate_plane(packed, level, _strategy(packed))
    escaped = plane[plane >= esc]
    escaped -= esc
    tail = (_deflate_plane(escaped, level, _strategy(escaped))
            if escaped.size else b"")
    return b"".join([bytes([w]), np.uint64(len(body)).tobytes(), body, tail])


def _encode_plane(plane: np.ndarray, level: int,
                  backend: str) -> tuple[int, bytes]:
    """Pick the cheapest encoding for one contiguous uint8 plane.

    The nonzero count settles empty planes and, at low effort, sparse
    ones outright; otherwise the run count settles constant planes.
    ``zlib`` then deflates small planes every way, packs a plane whose
    values fit 2 or 4 bits but for an eighth of them (PACKED), and at
    low effort sends a plane made of runs straight to ``Z_RLE``; the
    rest take one byte histogram for the entropy estimate that gates
    Huffman-only deflate and for the conditional entropy that sends
    noise planes to NIBBLE.  ``bz2`` and ``lzma`` compress the plane
    whole and keep the result where it undercuts every structural body.
    """
    n = plane.size
    nchunks = (n + _CHUNK - 1) // _CHUNK
    k = int(np.count_nonzero(plane))
    if k == 0:
        return _P_CONST, b"\x00"
    sparse_cost = 4 + 5 * k if n < 2**32 else n + 1
    if level <= 4 and sparse_cost <= min((nchunks + 1) // 2,
                                         _deflate_floor(n)):
        # exactly where the zlib chooser below ends up, without the
        # run count or the histogram: k < n rules out a nonzero CONST,
        # no deflate stream undercuts _deflate_floor(n), and then the
        # width-scan gate fires; bz2 and lzma leave such near-empty
        # planes SPARSE at low effort too
        return _sparse_plane(plane)
    runs = _run_count(plane)
    if runs == n - 1:
        return _P_CONST, plane[:1].tobytes()  # k > 0: every byte nonzero
    if backend in _PACKERS:
        body = _structural_plane(plane, sparse_cost)
        packed = _PACKERS[backend](plane, level)
        return (_P_ZLIB, packed) if len(packed) < len(body[1]) else body
    if backend == "zlib":
        blob = _deflate_gated(plane, level, runs, min(sparse_cost, n))
        if blob is not None:
            # a winning DEFLATE body skips the chunk-width scan
            # entirely; BITPACK only out-costs it on planes whose
            # chunks are locally narrow but globally diverse, and
            # those have a flat byte histogram that fails the gate
            return blob
    return _structural_plane(plane, sparse_cost)


def _deflate_gated(plane: np.ndarray, level: int, runs: int,
                   best: int) -> tuple[int, bytes] | None:
    """The smallest ZLIB, NIBBLE or PACKED body worth trying, if it
    undercuts ``best``, the plane's RAW or SPARSE cost.

    No floor gates the attempt: at low effort, once the sparse fast
    path has not fired, only planes under a few hundred bytes can have
    ``best <= _deflate_floor(n)``; and a plane left to Huffman-only
    (under 60 % runs) has over n/5 nonzero bytes, so its best is RAW,
    far above the bit per byte Huffman-only spends.
    """
    n = plane.size
    split, strategy, width = False, zlib.Z_HUFFMAN_ONLY, 0
    if n < _SMALL_PLANE:
        attempt, level = True, max(level, 5)
    elif width := _pack_width(plane):
        # deflate codes a byte per symbol and at least a bit per byte;
        # packing 2 or 4 values a byte halves or quarters that
        attempt = True
    elif level <= 4 and _rle_first(plane, runs):
        attempt, strategy = True, zlib.Z_RLE
    else:
        counts = _byte_histogram(plane)
        entropy = _entropy(counts, n)
        estimate = n * entropy / 8.0 * 1.05 + 12
        # bits a low nibble adds once its high nibble is known: the
        # split stores four, so it pays only where that is near four
        high_bits = _entropy(counts.reshape(16, 16).sum(axis=1), n)
        split = entropy - high_bits >= _SPLIT_BITS
        # DEFLATE is one C call — cheaper than even *scanning* the
        # plane for a BITPACK body — so try it whenever the first-order
        # estimate undercuts the structural best; high effort also
        # tries every plane that low effort might deflate with Z_RLE
        attempt = estimate < best or (level > 4 and runs >= _RLE_NEVER * n)
    if not attempt:
        return None
    # a noisy low nibble costs Huffman coding CPU for nothing, so low
    # effort deflates only the high half, and a packing plane only its
    # packed bytes; high effort tries the whole plane too and keeps the
    # smaller
    blobs = []
    if split:
        blobs.append((_P_NIBBLE, _nibble_plane(plane)))
    if width:
        blobs.append((_P_PACKED, _packed_plane(plane, width, level)))
    if not (split or width) or level > 4:
        blobs.append((_P_ZLIB, _deflate_plane(plane, level, strategy)))
    blob = min(blobs, key=lambda b: len(b[1]))
    return blob if len(blob[1]) < best else None


def _structural_plane(plane: np.ndarray,
                      sparse_cost: int) -> tuple[int, bytes]:
    """The cheapest of SPARSE, BITPACK and RAW.

    The per-chunk maxima reshape the plane in place when the length is
    a whole number of chunks (the common case for block-sized
    buffers), so the scratch copy only happens on ragged tails.
    """
    n = plane.size
    nchunks = (n + _CHUNK - 1) // _CHUNK
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
        if sparse_cost <= min(pack_cost, n):
            return _sparse_plane(plane)
        if pack_cost < n:
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
    backend = _backend(view[13])
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
            _decode_plane(tag, payload, n, plane_buf, backend)
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
                  out: np.ndarray, backend: str) -> None:
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
        out[:] = np.frombuffer(_inflate_at_most(backend, payload, n),
                               dtype=np.uint8)
    elif tag == _P_PACKED:
        _unpack_plane(payload, n, out, backend)
    elif tag == _P_NIBBLE:
        half, odd = divmod(n, 2)
        if len(payload) < half + odd:
            raise ValueError("corrupt residual stream: bad nibble plane")
        low = np.frombuffer(payload[:half], dtype=np.uint8)
        high = np.frombuffer(
            _inflate_at_most(backend, payload[half + odd:], half),
            dtype=np.uint8)
        out[0:2 * half:2] = (low & 0x0F) | (high << 4)
        out[1:2 * half:2] = (low >> 4) | (high & 0xF0)
        if odd:
            out[-1] = payload[half]
    else:
        raise ValueError(f"unknown plane encoding {tag}")


def _unpack_plane(payload: memoryview, n: int, out: np.ndarray,
                  backend: str) -> None:
    """Inverse of :func:`_packed_plane` into ``out`` (n uint8).

    The body must inflate to exactly the packed bytes, and the tail to
    exactly one byte per escape the body holds, each small enough that
    ``esc + byte`` is a byte; a tail with no escapes is rejected.
    """
    if len(payload) < 9 or payload[0] not in _PACK_KERNELS:
        raise ValueError("corrupt residual stream: bad packed plane")
    w = payload[0]
    blen = int(np.frombuffer(payload[1:9], dtype="<u8")[0])
    if blen > len(payload) - 9:
        raise ValueError("corrupt residual stream: packed body overruns")
    word, _, table = _PACK_KERNELS[w]
    nbytes = -(-n // (8 // w))
    body = np.frombuffer(
        _inflate_at_most(backend, payload[9:9 + blen], nbytes),
        dtype=np.uint8)
    if n % (8 // w):
        words = _pool.acquire(nbytes, word)
        try:
            _unpack_words(table, body, words)
            out[:] = words.view(np.uint8)[:n]
        finally:
            _pool.release(words)
    else:
        _unpack_words(table, body, out.view(word))
    esc = (1 << w) - 1
    # nonzero() has a fast path for bool input only
    hit = np.flatnonzero(out == esc)
    tail = payload[9 + blen:]
    if not hit.size:
        if len(tail):
            raise ValueError("corrupt residual stream: packed tail "
                             "without escapes")
        return
    extra = np.frombuffer(_inflate_at_most(backend, tail, hit.size),
                          dtype=np.uint8)
    if int(extra.max()) > 255 - esc:
        raise ValueError("corrupt residual stream: packed escape "
                         "above 255")
    out[hit] += extra


def _unpack_words(table: np.ndarray, body: np.ndarray,
                  words: np.ndarray) -> None:
    """``np.take(table, body, out=words)`` a slice at a time: ``take``
    widens its indices to intp first, and a slice keeps that copy small
    and in cache (3.0 -> 1.9 ms for a 3.3M-value plane at 4 bits)."""
    for i in range(0, body.size, _TAKE_SLICE):
        np.take(table, body[i:i + _TAKE_SLICE],
                out=words[i:i + _TAKE_SLICE], mode="clip")


def _backend(backend_id: int) -> str:
    """The backend a header's byte names."""
    if backend_id not in _BACKEND_NAMES:
        raise ValueError(f"unknown lossless backend id {backend_id}")
    return _BACKEND_NAMES[backend_id]


def _inflate_at_most(backend: str, data: memoryview, size: int) -> bytes:
    """Decompress ``data`` with ``backend``; it must hold exactly
    ``size`` bytes and nothing after them.

    At most ``size + 1`` bytes are inflated, so a forged stream cannot
    balloon before it is rejected: the output is capped before it is
    allocated, and the one byte of slack shows an overlong stream (and
    keeps zlib from reading a zero cap as "no limit").  A short output,
    left-over input or a missing end-of-stream marker raises
    ``ValueError``.
    """
    if backend == "none":
        raw = data
    else:
        inflater = _INFLATERS[backend]()
        try:
            raw = inflater.decompress(data, size + 1)
        except (zlib.error, OSError, EOFError, lzma.LZMAError) as e:
            raise ValueError(f"corrupt residual stream: {e}") from None
        if (not inflater.eof or inflater.unused_data
                or getattr(inflater, "unconsumed_tail", b"")):
            raise ValueError("corrupt residual stream: bad compressed payload")
    if len(raw) != size:
        raise ValueError(
            f"corrupt residual stream: payload {len(raw)} != {size}")
    return bytes(raw)


# ----------------------------------------------------------------------
# RZC1: legacy two-stream layout, decode only
# ----------------------------------------------------------------------
def _decode_rzc1(view: memoryview, n: int) -> np.ndarray:
    n_big = int(np.frombuffer(view[12:20], dtype=np.uint64)[0])
    payload = _inflate_at_most(_backend(view[20]), view[21:], n + 8 * n_big)
    stream_a = np.frombuffer(payload, dtype=np.uint8, count=n)
    codes = stream_a.astype(np.uint64)
    if n_big:
        stream_b = np.frombuffer(payload, dtype="<u8", offset=n, count=n_big)
        codes[stream_a == 255] = stream_b
    return zigzag_decode(codes)
