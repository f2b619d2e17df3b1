"""RZC2 per-plane encodings: tag choice, round trip and stream pins.

Each seeded input below forces one plane encoding (CONST, RAW, SPARSE,
BITPACK, ZLIB, NIBBLE, or PACKED at 2 or 4 bits) of a single-plane
residual stream, at effort levels 1 and 6, for a whole-chunk length
(2048), a ragged one (2049) and a paper-scale one (2**18).  The SHA-256
of every stream was recorded before the codec's hot paths were
rewritten, so a change that alters one emitted byte fails here.  A
second group pins multi-plane streams and round-trips every plane count
0..8, which exercises every decode code width.  The last groups check
that every backend writes RZC2 at every size, small arrays included,
pin the low-effort deflate skip gate, and check that the decoder
rejects malformed planes (PACKED ones under every check of its layout)
and RZC1 payloads, bombs included, and a stream declaring another
residual count than its caller expects.
"""

from __future__ import annotations

import bz2
import hashlib
import lzma
import pathlib
import tracemalloc
import zlib
from unittest import mock

import numpy as np
import pytest

from repro.core import CorruptStreamError
from repro.encoders import residual
from repro.encoders.residual import (LOSSLESS_BACKENDS, CorruptResidualError,
                                     decode_residuals, encode_residuals)

SIZES = (2048, 2049, 2 ** 18)
LEVELS = (1, 6)

_TAGS = {"const": residual._P_CONST, "raw": residual._P_RAW,
         "sparse": residual._P_SPARSE, "bitpack": residual._P_BITPACK,
         "zlib": residual._P_ZLIB, "nibble": residual._P_NIBBLE,
         "packed2": residual._P_PACKED, "packed4": residual._P_PACKED}


def _from_codes(codes: np.ndarray) -> np.ndarray:
    """Residuals whose zigzag codes are ``codes``."""
    c = codes.astype(np.uint64)
    return ((c >> np.uint64(1)).view(np.int64)
            ^ -(c & np.uint64(1)).view(np.int64))


def _plane_input(kind: str, n: int) -> np.ndarray:
    rng = np.random.default_rng([n, len(kind)])
    if kind == "const":
        codes = np.full(n, 6)
    elif kind == "raw":
        codes = rng.integers(0, 256, n)
    elif kind == "sparse":
        codes = np.zeros(n, dtype=np.int64)
        pos = rng.choice(n, size=max(4, n // 13000), replace=False)
        codes[pos] = rng.integers(1, 256, pos.size)
    elif kind == "bitpack":
        # locally narrow, globally diverse: chunks alternate between 7-
        # and 8-bit values, so the byte histogram is nearly flat
        nchunks = (n + 31) // 32
        tops = np.where(np.arange(nchunks) % 2 == 0, 128, 256)
        codes = (rng.random(nchunks * 32)
                 * np.repeat(tops, 32)).astype(np.int64)[:n]
    elif kind == "zlib":
        # an eighth of the values or more reach 15: too wide to pack
        codes = rng.choice([1, 2, 3, 9, 17, 40], size=n,
                           p=[0.55, 0.15, 0.1, 0.05, 0.1, 0.05])
    elif kind == "packed2":
        # 1 % of the values escape a 2-bit pack
        codes = rng.choice([0, 1, 2, 40], size=n, p=[0.9, 0.06, 0.03, 0.01])
    elif kind == "packed4":
        # too many values reach 3 for 2 bits; 1 % escape 4 bits
        codes = rng.choice([0, 5, 200], size=n, p=[0.85, 0.14, 0.01])
    elif kind == "nibble":
        # a noise low nibble under a skewed high one
        codes = (16 * rng.choice(3, size=n, p=[0.7, 0.2, 0.1])
                 + rng.integers(0, 16, n))
    else:
        raise AssertionError(kind)
    return _from_codes(codes)


def _wide_input(nplanes: int, n: int = 2049) -> np.ndarray:
    rng = np.random.default_rng([n, nplanes, 7])
    top = 1 << (8 * nplanes - 1)
    codes = rng.integers(0, top, n, dtype=np.uint64)
    codes[n // 2] = np.uint64(2 ** (8 * nplanes) - 1)  # fills the top plane
    return _from_codes(codes)


def _plane_tags(stream: bytes) -> list[int]:
    """Walk an RZC2 stream's plane headers and return their tags."""
    assert stream[:4] == b"RZC2"
    pos, tags = 14, []
    for _ in range(stream[12]):
        tags.append(stream[pos])
        pos += 9 + int.from_bytes(stream[pos + 1:pos + 9], "little")
    assert pos == len(stream)
    return tags


def _sha(stream: bytes) -> str:
    return hashlib.sha256(stream).hexdigest()


#: SHA-256 of ``encode_residuals(input, "zlib", level)``, keyed by
#: (kind, n, level), recorded from the encoder before its rewrite
PLANE_PINS = {
    ("bitpack", 2048, 1):
        "13905a85700b68e6d8433147dceaa15c835b2294498c901b49698658364247ae",
    ("bitpack", 2048, 6):
        "13905a85700b68e6d8433147dceaa15c835b2294498c901b49698658364247ae",
    ("bitpack", 2049, 1):
        "fb5bdec1c87ad32067df9407ab3f4e4e48f49e55f656225b9a68689eff43b433",
    ("bitpack", 2049, 6):
        "fb5bdec1c87ad32067df9407ab3f4e4e48f49e55f656225b9a68689eff43b433",
    ("bitpack", 262144, 1):
        "971ab07379edcede30255508bcf0dd41d2743b2f0d3205581b530a3ae4812944",
    ("bitpack", 262144, 6):
        "971ab07379edcede30255508bcf0dd41d2743b2f0d3205581b530a3ae4812944",
    ("const", 2048, 1):
        "c9fe5e254ca550f5bdacabc8ef25679bd9eca44b662c69c940f60bf2770a5c80",
    ("const", 2048, 6):
        "c9fe5e254ca550f5bdacabc8ef25679bd9eca44b662c69c940f60bf2770a5c80",
    ("const", 2049, 1):
        "ec18923654f7e96e6ac225a1e0ee790793bda2d077a96dad80f907aae88e161f",
    ("const", 2049, 6):
        "ec18923654f7e96e6ac225a1e0ee790793bda2d077a96dad80f907aae88e161f",
    ("const", 262144, 1):
        "2ea72615fb771b999d02f220b95d701ac15856e11b4034718e2b8406585fa4ee",
    ("const", 262144, 6):
        "2ea72615fb771b999d02f220b95d701ac15856e11b4034718e2b8406585fa4ee",
    ("raw", 2048, 1):
        "a31597a05227f7c26e1ebff9a03de775212b953b3a976f31e7871752271d4b2d",
    ("raw", 2048, 6):
        "a31597a05227f7c26e1ebff9a03de775212b953b3a976f31e7871752271d4b2d",
    ("raw", 2049, 1):
        "a656a359fedf58ed548966b722e10816e27b7d4fcd565010c4bc217de42df411",
    ("raw", 2049, 6):
        "a656a359fedf58ed548966b722e10816e27b7d4fcd565010c4bc217de42df411",
    ("raw", 262144, 1):
        "3d95b61c207bb413fa78104cc78acc867622ff27173737e3553364a8b3aa1bbf",
    ("raw", 262144, 6):
        "3d95b61c207bb413fa78104cc78acc867622ff27173737e3553364a8b3aa1bbf",
    ("sparse", 2048, 1):
        "5526e666c1371e6a621ccaca23e388b7a646a48a05864e1a3a0b7c3261ade472",
    ("sparse", 2048, 6):
        "5526e666c1371e6a621ccaca23e388b7a646a48a05864e1a3a0b7c3261ade472",
    ("sparse", 2049, 1):
        "c576d7a0edba0898a3b77bc1c8ce6f07927e95a9793033c7c66d5e0033b3c3b0",
    ("sparse", 2049, 6):
        "c576d7a0edba0898a3b77bc1c8ce6f07927e95a9793033c7c66d5e0033b3c3b0",
    ("sparse", 262144, 1):
        "11b629baed33e1cd1a5db8309dbe9728f5946f0ac2b4342f2d3e9ffdd369c5ac",
    ("sparse", 262144, 6):
        "11b629baed33e1cd1a5db8309dbe9728f5946f0ac2b4342f2d3e9ffdd369c5ac",
    # recorded when the NIBBLE encoding was added
    ("nibble", 2048, 1):
        "769f8028201defcdeed79b9c0394e797a135655cc4b6215b5aab091aeab9feab",
    ("nibble", 2048, 6):
        "769f8028201defcdeed79b9c0394e797a135655cc4b6215b5aab091aeab9feab",
    ("nibble", 2049, 1):
        "1b1744535b24eb9d511e68ccfdacb6bc277b0edb9c6da4972709d1f4cc7d56b9",
    ("nibble", 2049, 6):
        "1b1744535b24eb9d511e68ccfdacb6bc277b0edb9c6da4972709d1f4cc7d56b9",
    ("nibble", 262144, 1):
        "bcd263d8a739ea1e86fc3e6ef05566ca9b1873a4bbd68ee20032747d0767a5a6",
    ("nibble", 262144, 6):
        "bcd263d8a739ea1e86fc3e6ef05566ca9b1873a4bbd68ee20032747d0767a5a6",
    # recorded when the PACKED encoding was added, which packs the
    # earlier ZLIB input (values 1, 2, 3 and 9) at 4 bits; the ZLIB input
    # became one too wide to pack
    ("packed2", 2048, 1):
        "0424ffae80b04db63eb62c5ef67f5876821337f45800f6085dfdf9781f23804b",
    ("packed2", 2048, 6):
        "0424ffae80b04db63eb62c5ef67f5876821337f45800f6085dfdf9781f23804b",
    ("packed2", 2049, 1):
        "d1edce93a82f343861300ee6cf42d32ce86a49fcd6a0fa00a845ece6ca6bd1ec",
    ("packed2", 2049, 6):
        "d1edce93a82f343861300ee6cf42d32ce86a49fcd6a0fa00a845ece6ca6bd1ec",
    ("packed2", 262144, 1):
        "99841a9e8d753dfb949e31913bc175f9c905f401214bfe2f6269fc84c202f9ab",
    ("packed2", 262144, 6):
        "99841a9e8d753dfb949e31913bc175f9c905f401214bfe2f6269fc84c202f9ab",
    ("packed4", 2048, 1):
        "8fd2159680ba7d45de2eda117253d23c5aa6d7f5c8973635adc246de3211977b",
    ("packed4", 2048, 6):
        "8fd2159680ba7d45de2eda117253d23c5aa6d7f5c8973635adc246de3211977b",
    ("packed4", 2049, 1):
        "0de6cea27717a0df759275a1a55d5b14a6f7abcf3115b39e9d0897b2261f5f1e",
    ("packed4", 2049, 6):
        "0de6cea27717a0df759275a1a55d5b14a6f7abcf3115b39e9d0897b2261f5f1e",
    ("packed4", 262144, 1):
        "5f07e534a764295f1e4b5fcc5106b9d4e6d251054f6d8df5af3c3ca284b68de4",
    ("packed4", 262144, 6):
        "5f07e534a764295f1e4b5fcc5106b9d4e6d251054f6d8df5af3c3ca284b68de4",
    ("zlib", 2048, 1):
        "ed1ba54bbea332f08a7266bb22b1df528ac580ca54274a0af6f04fe4e2a99593",
    ("zlib", 2048, 6):
        "ed1ba54bbea332f08a7266bb22b1df528ac580ca54274a0af6f04fe4e2a99593",
    ("zlib", 2049, 1):
        "3b75fb35c3052a1c2383908f0728eba164189a7f439aff277e421476d2f822a0",
    ("zlib", 2049, 6):
        "3b75fb35c3052a1c2383908f0728eba164189a7f439aff277e421476d2f822a0",
    ("zlib", 262144, 1):
        "21876597ca3f1a0840663a98e4a70e1b66334e936cd2383f5c3febb3ecb65f2b",
    ("zlib", 262144, 6):
        "21876597ca3f1a0840663a98e4a70e1b66334e936cd2383f5c3febb3ecb65f2b",
}

#: SHA-256 of the multi-plane streams, keyed by (nplanes, level); the
#: top plane is NIBBLE except at (5, 6), where whole-plane deflate is
#: smaller (the level-1 streams before the split and the unmargined
#: entropy gate are decode fixtures in ``compat/``)
WIDE_PINS = {
    (2, 1):
        "1fbe843dfdee498a30842986b87a8195896e289a26eb10d4c88e05cfc8416f89",
    (2, 6):
        "1fbe843dfdee498a30842986b87a8195896e289a26eb10d4c88e05cfc8416f89",
    (3, 1):
        "1bc144889e3ab19590231a5805fcb358ff684a323680f1c80cf02483cbc3f525",
    (3, 6):
        "1bc144889e3ab19590231a5805fcb358ff684a323680f1c80cf02483cbc3f525",
    (5, 1):
        "c3bd5cffa9f44c84c54249c9f52bc84e8d5969b2b48375bbd937a133d51c3a75",
    (5, 6):
        "005c164d836a63e7a3f96bff14a26380213b83ce40bcd23bd005d821647e1b6d",
    (8, 1):
        "6ac1089c4bb2c6d2449c68f69a77222f4efb9ffaf069841b1eacb43837b73984",
    (8, 6):
        "6ac1089c4bb2c6d2449c68f69a77222f4efb9ffaf069841b1eacb43837b73984",
}


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", sorted(_TAGS))
def test_plane_tag_roundtrip_and_pin(kind, n, level):
    r = _plane_input(kind, n)
    stream = encode_residuals(r, "zlib", level)
    assert _plane_tags(stream) == [_TAGS[kind]]
    assert np.array_equal(decode_residuals(stream), r)
    assert _sha(stream) == PLANE_PINS[(kind, n, level)]


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("nplanes", (2, 3, 5, 8))
def test_multi_plane_pin(nplanes, level):
    stream = encode_residuals(_wide_input(nplanes), "zlib", level)
    assert len(_plane_tags(stream)) == nplanes
    assert _sha(stream) == WIDE_PINS[(nplanes, level)]


@pytest.mark.parametrize("nplanes", range(9))
def test_every_code_width_roundtrips_to_int64(nplanes):
    r = (_wide_input(nplanes) if nplanes
         else np.zeros(4096, dtype=np.int64))
    stream = encode_residuals(r, "zlib", 1)
    assert stream[12] == nplanes
    out = decode_residuals(stream)
    assert out.dtype == np.int64
    assert np.array_equal(out, r)


# -- small arrays ------------------------------------------------------------

def _small_input(n: int) -> np.ndarray:
    """Mostly small residuals, every seventh one wide enough for a
    second byte plane."""
    rng = np.random.default_rng([n, 33])
    r = rng.integers(-40, 40, n)
    r[::7] = rng.integers(-3000, 3000, r[::7].size)
    return r


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("n", (0, 1, 16, 2047, 2048))
@pytest.mark.parametrize("backend", LOSSLESS_BACKENDS)
def test_every_backend_and_size_writes_rzc2(backend, n, level):
    r = _small_input(n)
    stream = encode_residuals(r, backend, level)
    assert stream[:4] == b"RZC2"
    assert stream[13] == residual._BACKEND_IDS[backend]
    out = decode_residuals(stream, count=n)
    assert out.dtype == np.int64
    assert np.array_equal(out, r)


#: bytes of a short two-plane periodic pattern: the RZC1 stream the
#: zlib backend wrote for it before RZC2 became the only format (one
#: 21-byte header, one zlib stream), and its RZC2 stream now (14-byte
#: header; per plane, 9 bytes of framing and a 17-byte zlib stream)
PERIODIC = np.tile([0, 0, 0, 5, -300, 0], 24)
PERIODIC_BYTES = {"RZC1": 47, "RZC2": 66}


@pytest.mark.parametrize("level", LEVELS)
def test_small_periodic_planes_are_deflated_with_match_search(level):
    """Below ``_SMALL_PLANE`` bytes every level searches for matches,
    which is what finds a period; Huffman-only or ``Z_RLE`` alone would
    take 48 or 52 bytes per plane here."""
    stream = encode_residuals(PERIODIC, "zlib", level)
    assert _plane_tags(stream) == [residual._P_ZLIB] * 2
    assert len(stream) == PERIODIC_BYTES["RZC2"]
    assert np.array_equal(decode_residuals(stream), PERIODIC)


# -- exact skip gates --------------------------------------------------------

def test_near_empty_plane_skips_deflate_only_at_low_effort():
    """Huffman-only deflate costs at least n/8 bytes, more than this
    plane's SPARSE body; only high effort (LZ matching) may still win.
    The plane fits 2 bits but for its 20 nonzero bytes, which escape, so
    high effort deflates its packed bytes, its tail and the whole
    plane."""
    n = 2 ** 18
    r = _plane_input("sparse", n)
    with mock.patch.object(residual, "_deflate_plane",
                           wraps=residual._deflate_plane) as spy:
        stream = encode_residuals(r, "zlib", 1)
    assert spy.call_count == 0
    assert _plane_tags(stream) == [residual._P_SPARSE]
    with mock.patch.object(residual, "_deflate_plane",
                           wraps=residual._deflate_plane) as spy:
        stream = encode_residuals(r, "zlib", 6)
    assert [c.args[0].size for c in spy.call_args_list] == [n // 4, 20, n]
    assert _plane_tags(stream) == [residual._P_SPARSE]


# -- the nibble split ----------------------------------------------------------

def _eligible_planes():
    """Planes whose low nibble is noise given the high one, under high
    nibbles of every skew from a single value to uniform."""
    rng = np.random.default_rng(5)
    for n in (1024, 2049, 2 ** 16 + 1):
        for spread in (1, 2, 3, 5, 8, 16):
            p = 0.5 ** np.arange(spread)
            high = rng.choice(spread, size=n, p=p / p.sum())
            yield (16 * high + rng.integers(0, 16, n)).astype(np.uint8)


def test_high_effort_is_never_larger_on_split_eligible_planes():
    tags = set()
    for plane in _eligible_planes():
        counts = np.bincount(plane, minlength=256)
        n = plane.size
        conditional = (residual._entropy(counts, n) - residual._entropy(
            counts.reshape(16, 16).sum(axis=1), n))
        assert conditional >= residual._SPLIT_BITS
        low_tag, low = residual._encode_plane(plane, 1, "zlib")
        high_tag, high = residual._encode_plane(plane, 6, "zlib")
        assert len(high) <= len(low)
        tags.add(low_tag)
    assert residual._P_NIBBLE in tags


def _nibble_parts(n: int) -> tuple[bytes, bytes, bytes]:
    """The low half, odd last byte and deflated high half of a genuine
    NIBBLE plane of ``n`` bytes."""
    stream = encode_residuals(_plane_input("nibble", n))
    assert _plane_tags(stream) == [residual._P_NIBBLE]
    payload = stream[23:]
    half, odd = divmod(n, 2)
    return payload[:half], payload[half:half + odd], payload[half + odd:]


_N_ODD = 2 ** 18 + 1


def _forged_nibble_planes() -> dict[str, bytes]:
    low, tail, high = _nibble_parts(_N_ODD)
    half = _N_ODD // 2
    return {
        "truncated-low": low[:-1] + tail + high,
        "cut-inside-low": low[:half // 2],
        "high-short": low + tail + zlib.compress(bytes(half - 1)),
        "high-bomb": low + tail + zlib.compress(bytes(64 * _N_ODD), 9),
        "high-one-over": low + tail + zlib.compress(bytes(half + 1)),
        "missing-tail": low + high,
        "trailing-bytes": low + tail + high + b"\x00",
        "high-cut": low + tail + high[:-5],
    }


def test_nibble_plane_roundtrips_with_its_odd_last_byte():
    low, tail, high = _nibble_parts(_N_ODD)
    good = _single_plane(residual._P_NIBBLE, low + tail + high, _N_ODD)
    assert np.array_equal(decode_residuals(good, count=_N_ODD),
                          _plane_input("nibble", _N_ODD))


@pytest.mark.parametrize("name", list(_forged_nibble_planes()))
@pytest.mark.parametrize("count", [None, _N_ODD])
def test_forged_nibble_plane_is_rejected_with_bounded_memory(name, count):
    stream = _single_plane(residual._P_NIBBLE,
                           _forged_nibble_planes()[name], _N_ODD)
    tracemalloc.start()
    try:
        with pytest.raises(CorruptResidualError,
                           match="corrupt residual stream"):
            decode_residuals(stream, count=count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * _N_ODD


# -- packed planes -----------------------------------------------------------

_N_PACK = 2 ** 18


def _packed_parts(kind: str) -> tuple[int, bytes, bytes, bytes]:
    """``w``, the deflated body, the deflated tail and the tail's bytes
    of a genuine PACKED plane of ``_N_PACK`` bytes."""
    stream = encode_residuals(_plane_input(kind, _N_PACK))
    assert _plane_tags(stream) == [residual._P_PACKED]
    payload = stream[23:]
    blen = int.from_bytes(payload[1:9], "little")
    body, tail = payload[9:9 + blen], payload[9 + blen:]
    return payload[0], body, tail, zlib.decompress(tail)


def _packed_payload(w: int, body: bytes, tail: bytes = b"") -> bytes:
    return bytes([w]) + len(body).to_bytes(8, "little") + body + tail


def _forged_packed_planes() -> dict[str, bytes]:
    w, body, tail, escapes = _packed_parts("packed2")
    assert w == 2 and escapes
    over = bytearray(escapes)
    over[len(over) // 2] = 256 - 3  # 3 + 253 is no byte
    bomb = zlib.compress(bytes(64 * _N_PACK), 9)
    forged = {
        "body-bomb": _packed_payload(w, bomb, tail),
        "tail-bomb": _packed_payload(w, body, bomb),
        "body-short": _packed_payload(
            w, zlib.compress(zlib.decompress(body)[:-1]), tail),
        "body-overrun": (bytes([w]) + (len(body) + len(tail) + 1).to_bytes(
            8, "little") + body + tail),
        "header-cut": bytes([w]) + len(body).to_bytes(8, "little")[:5],
        "tail-without-escapes": _packed_payload(
            w, zlib.compress(bytes(_N_PACK // 4)), zlib.compress(b"\x00")),
        "tail-short": _packed_payload(w, body, zlib.compress(escapes[:-1])),
        "tail-missing": _packed_payload(w, body),
        "tail-byte-above-255-esc": _packed_payload(
            w, body, zlib.compress(bytes(over))),
        "trailing-bytes": _packed_payload(w, body, tail) + b"\x00",
    }
    for bad in (0, 1, 3, 8):
        forged[f"w{bad}"] = _packed_payload(bad, body, tail)
    return forged


@pytest.mark.parametrize("kind,w", [("packed2", 2), ("packed4", 4)])
def test_packed_plane_parts_rebuild_the_plane(kind, w):
    """Body and tail as documented: ``min(v, esc)`` packed little end
    first, and ``v - esc`` of each escape in order."""
    got_w, body, _, escapes = _packed_parts(kind)
    assert got_w == w
    esc = (1 << w) - 1
    codes = residual.zigzag_encode(_plane_input(kind, _N_PACK))
    packed = np.frombuffer(zlib.decompress(body), dtype=np.uint8)
    fields = [(packed >> (w * i)) & esc for i in range(8 // w)]
    assert np.array_equal(np.stack(fields, axis=1).reshape(-1),
                          np.minimum(codes, esc))
    assert np.array_equal(np.frombuffer(escapes, dtype=np.uint8),
                          codes[codes >= esc] - esc)


#: why each forged plane fails: the capped inflater's overlong, short or
#: unterminated stream, or one of the PACKED checks
_PACKED_REJECTIONS = {
    "body-bomb": "bad compressed payload",
    "tail-bomb": "bad compressed payload",
    "body-short": "payload 65535 != 65536",
    "body-overrun": "packed body overruns",
    "header-cut": "bad packed plane",
    "tail-without-escapes": "packed tail without escapes",
    "tail-short": r"payload \d+ != \d+",
    "tail-missing": "bad compressed payload",
    "tail-byte-above-255-esc": "packed escape above 255",
    "trailing-bytes": "bad compressed payload",
    "w0": "bad packed plane", "w1": "bad packed plane",
    "w3": "bad packed plane", "w8": "bad packed plane",
}


@pytest.mark.parametrize("name", list(_forged_packed_planes()))
def test_forged_packed_plane_is_rejected_with_bounded_memory(name):
    stream = _single_plane(residual._P_PACKED,
                           _forged_packed_planes()[name], _N_PACK)
    tracemalloc.start()
    try:
        with pytest.raises(CorruptResidualError,
                           match="corrupt residual stream: "
                                 + _PACKED_REJECTIONS[name]):
            decode_residuals(stream, count=_N_PACK)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * _N_PACK


# -- malformed planes --------------------------------------------------------

def _single_plane(tag: int, payload: bytes, n: int,
                  backend: str = "zlib") -> bytes:
    return (b"RZC2" + n.to_bytes(8, "little")
            + bytes([1, residual._BACKEND_IDS[backend], tag])
            + len(payload).to_bytes(8, "little") + payload)


def _bitpack_stream() -> bytearray:
    stream = bytearray(encode_residuals(_plane_input("bitpack", 2048)))
    assert _plane_tags(bytes(stream)) == [residual._P_BITPACK]
    return stream


def test_zlib_bomb_is_rejected_with_bounded_memory():
    n = 2 ** 18
    bomb = _single_plane(residual._P_ZLIB, zlib.compress(bytes(64 * n), 9),
                         n)
    assert len(bomb) < n // 8
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="corrupt residual stream"):
            decode_residuals(bomb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n


def _rzc1(backend: str, n: int, n_big: int, payload: bytes) -> bytes:
    return (b"RZC1" + n.to_bytes(8, "little") + n_big.to_bytes(8, "little")
            + bytes([residual._BACKEND_IDS[backend]]) + payload)


#: the lzma preset's dictionary (256 KiB at preset 0) is decoder
#: memory the stream declares; the output cap is what is tested here
_PACK = {"zlib": lambda b: zlib.compress(b, 9),
         "bz2": lambda b: bz2.compress(b, 9),
         "lzma": lambda b: lzma.compress(b, preset=0)}


@pytest.mark.parametrize("backend", ["bz2", "lzma"])
def test_strong_backend_plane_bomb_is_rejected_with_bounded_memory(backend):
    """A tag-4 plane decodes with the header's backend, under the same
    cap as a zlib plane."""
    n = 2 ** 18
    size = 64 * n
    bomb = _single_plane(residual._P_ZLIB, _PACK[backend](bytes(size)), n,
                         backend)
    assert len(bomb) < n // 8
    tracemalloc.start()
    try:
        with pytest.raises(CorruptResidualError,
                           match="corrupt residual stream"):
            decode_residuals(bomb, count=n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < size // 16


@pytest.mark.parametrize("backend", ["bz2", "lzma", "none"])
def test_strong_backend_plane_must_inflate_to_exactly_n(backend):
    n = 4096
    pack = _PACK.get(backend, bytes)
    for payload in (pack(bytes(n - 1)), pack(bytes(n + 1))):
        with pytest.raises(CorruptResidualError,
                           match="corrupt residual stream"):
            decode_residuals(_single_plane(residual._P_ZLIB, payload, n,
                                           backend))
    good = _single_plane(residual._P_ZLIB, pack(bytes(n)), n, backend)
    assert not decode_residuals(good).any()


@pytest.mark.parametrize("backend", sorted(_PACK))
def test_rzc1_bomb_is_rejected_with_bounded_memory(backend):
    """A stream declaring one residual inflates to at most two bytes."""
    size = 64 * 2 ** 18
    bomb = _rzc1(backend, 1, 0, _PACK[backend](bytes(size)))
    assert len(bomb) < size // 512
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="corrupt residual stream"):
            decode_residuals(bomb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < size // 16


@pytest.mark.parametrize("backend", sorted(_PACK))
def test_rzc1_payload_must_inflate_to_exactly_n(backend):
    n = 4096
    body = _PACK[backend](bytes(n))
    for forged in (_rzc1(backend, n + 1, 0, body),          # short
                   _rzc1(backend, n, 0, body[:-4]),          # no end
                   _rzc1(backend, n, 0, body + b"\x00")):    # left over
        with pytest.raises(ValueError, match="corrupt residual stream"):
            decode_residuals(forged)
    assert not decode_residuals(_rzc1(backend, n, 0, body)).any()


def test_zlib_plane_must_inflate_to_exactly_n():
    n = 4096
    for payload in (zlib.compress(bytes(n - 1)),       # short
                    zlib.compress(bytes(n))[:-6],      # no end of stream
                    zlib.compress(bytes(n)) + b"junk"):  # left over
        with pytest.raises(ValueError, match="corrupt residual stream"):
            decode_residuals(_single_plane(residual._P_ZLIB, payload, n))
    good = _single_plane(residual._P_ZLIB, zlib.compress(bytes(n)), n)
    assert not decode_residuals(good).any()


def test_bitpack_width_nibble_above_8_is_rejected():
    stream = _bitpack_stream()
    stream[23] = 0x90 | (stream[23] & 0x0F)  # first chunk claims width 9
    with pytest.raises(ValueError, match="bitpack width > 8"):
        decode_residuals(bytes(stream))


@pytest.mark.parametrize("keep", [-1, 10])
def test_bitpack_body_size_mismatch_is_rejected(keep):
    """A body one byte short, or cut inside the width nibbles."""
    stream = _bitpack_stream()
    payload = bytes(stream[23:])
    payload = payload[:keep]
    forged = _single_plane(residual._P_BITPACK, payload, 2048)
    with pytest.raises(ValueError, match="bitpack size mismatch"):
        decode_residuals(forged)


@pytest.mark.parametrize("cut", [14, 18, 22])
def test_truncated_plane_header_is_rejected(cut):
    stream = bytes(_bitpack_stream())
    with pytest.raises(ValueError, match="truncated plane"):
        decode_residuals(stream[:cut + 1])


#: a 1500-residual RZC1 stream written by an earlier encoder
RZC1_FIXTURE = pathlib.Path(__file__).parent / "compat" / "rzc1_small.bin"


@pytest.mark.parametrize("fmt", ["RZC1", "RZC2"])
def test_declared_count_must_match_the_expected_count(fmt):
    """A header declaring 2**34 residuals fails against the caller's
    count before a buffer the size of that declaration exists."""
    if fmt == "RZC2":
        n = 4096
        stream = bytearray(encode_residuals(
            np.random.default_rng(7).integers(-40, 40, n)))
    else:
        n = 1500
        stream = bytearray(RZC1_FIXTURE.read_bytes())
    assert bytes(stream[:4]) == fmt.encode()
    assert np.array_equal(decode_residuals(stream, count=n),
                          decode_residuals(bytes(stream)))
    with pytest.raises(ValueError, match=f"expected {n + 1}"):
        decode_residuals(stream, count=n + 1)
    stream[4:12] = (2 ** 34).to_bytes(8, "little")
    tracemalloc.start()
    try:
        with pytest.raises(CorruptStreamError,
                           match="corrupt residual stream"):
            decode_residuals(stream, count=n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize("stream", [
    b"XXXX" + bytes(20),                                    # bad magic
    b"RZC2" + bytes(3),                                     # truncated
    _single_plane(residual._P_ZLIB, b"not a zlib stream", 64),
    _single_plane(residual._P_RAW, bytes(63), 64),
], ids=["magic", "truncated", "zlib-garbage", "raw-short"])
def test_every_rejection_is_a_typed_corrupt_stream_error(stream):
    """Natives surface decode failures as ``CorruptStreamError`` without
    wrapping; a garbage ZLIB plane once escaped as ``zlib.error``."""
    with pytest.raises(CorruptStreamError) as info:
        decode_residuals(stream)
    assert isinstance(info.value, ValueError)
