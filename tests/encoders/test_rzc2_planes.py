"""RZC2 per-plane encodings: tag choice, round trip and stream pins.

Each seeded input below forces one plane encoding (CONST, RAW, SPARSE,
BITPACK or ZLIB) of a single-plane residual stream, at effort levels 1
and 6, for a whole-chunk length (2048), a ragged one (2049) and a
paper-scale one (2**18).  The SHA-256 of every stream was recorded
before the codec's hot paths were rewritten, so a change that alters
one emitted byte fails here.  A second group pins multi-plane streams
and round-trips every plane count 0..8, which exercises every decode
code width.  The last groups check that small arrays keep the smaller
of RZC1 and RZC2, pin the low-effort deflate skip gate, and check that
the decoder rejects malformed planes and RZC1 payloads, bombs included,
and a stream declaring another residual count than its caller expects.
"""

from __future__ import annotations

import bz2
import hashlib
import lzma
import tracemalloc
import zlib
from unittest import mock

import numpy as np
import pytest

from repro.core import CorruptStreamError
from repro.encoders import residual
from repro.encoders.residual import decode_residuals, encode_residuals

SIZES = (2048, 2049, 2 ** 18)
LEVELS = (1, 6)

_TAGS = {"const": residual._P_CONST, "raw": residual._P_RAW,
         "sparse": residual._P_SPARSE, "bitpack": residual._P_BITPACK,
         "zlib": residual._P_ZLIB}


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
        codes = rng.choice([1, 2, 3, 9], size=n, p=[0.7, 0.15, 0.1, 0.05])
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
    ("zlib", 2048, 1):
        "73878781f56d43eaee73b8434540a1ae5bbaabc083b826c08a1a7f322ee80b73",
    ("zlib", 2048, 6):
        "73878781f56d43eaee73b8434540a1ae5bbaabc083b826c08a1a7f322ee80b73",
    ("zlib", 2049, 1):
        "13c232a04354ab22340665f681b4220f05948d4c4fdb18a3bfd43eda00aaab6b",
    ("zlib", 2049, 6):
        "13c232a04354ab22340665f681b4220f05948d4c4fdb18a3bfd43eda00aaab6b",
    ("zlib", 262144, 1):
        "773bf47f60edaaba9fed93d7c51640fd6b0d326e412323935591637a7b421d94",
    ("zlib", 262144, 6):
        "773bf47f60edaaba9fed93d7c51640fd6b0d326e412323935591637a7b421d94",
}

#: SHA-256 of the multi-plane streams, keyed by (nplanes, level)
WIDE_PINS = {
    (2, 1):
        "bf9ce3dda8d5310fe3cc061015a7c7d2fcd74b87615eda4cfd845efd3e6964f0",
    (2, 6):
        "d012ce92ce3900d82ac533a332f30c172c4d07424cf317bc10b336d43ac9bb52",
    (3, 1):
        "df38dcf8ce99f821dfa7feccc65db5c35fd0974b59ccd46c05d92df0ecfe4381",
    (3, 6):
        "7f1b7f0350576fa6dcba5479e81657930382c700e7cc8e6e796006c559368c76",
    (5, 1):
        "f19289199803389180e0f4a96b0dbece09ca9b4a898b7cc9fa04c199c38b58dd",
    (5, 6):
        "005c164d836a63e7a3f96bff14a26380213b83ce40bcd23bd005d821647e1b6d",
    (8, 1):
        "71f0c86c3e70faa1f214cac2188809de1a477fd93a661cfa682922196c825a14",
    (8, 6):
        "f12d70fc22991dd621f4a9689cbe631d5c2ff8ac562497a9e569059744eb07d4",
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

#: below the RZC1 cutoff: RZC2 wins on run-heavy and single-plane
#: input, RZC1 on a short periodic pattern that spans two planes
SMALL = {"const": _plane_input("const", 700),
         "zlib": _plane_input("zlib", 2047),
         "two_planes": _wide_input(2, 300),
         "periodic": np.tile([0, 0, 0, 5, -300, 0], 24)}


@pytest.mark.parametrize("name", list(SMALL))
def test_small_arrays_keep_the_smaller_format(name):
    r = SMALL[name]
    legacy = residual._encode_rzc1(r, "zlib", 1)
    planes = residual._encode_rzc2(r, int(r.min()), int(r.max()), "zlib", 1)
    stream = encode_residuals(r, "zlib", 1)
    assert stream == (planes if len(planes) < len(legacy) else legacy)
    assert stream[:4] == (b"RZC1" if name == "periodic" else b"RZC2")
    assert np.array_equal(decode_residuals(stream), r)
    for backend in ("bz2", "lzma", "none"):
        assert encode_residuals(r, backend, 1)[:4] == b"RZC1"


# -- exact skip gates --------------------------------------------------------

def test_near_empty_plane_skips_deflate_only_at_low_effort():
    """Huffman-only deflate costs at least n/8 bytes, more than this
    plane's SPARSE body; only high effort (LZ matching) may still win."""
    r = _plane_input("sparse", 2 ** 18)
    with mock.patch.object(residual, "_deflate_plane",
                           wraps=residual._deflate_plane) as spy:
        stream = encode_residuals(r, "zlib", 1)
    assert spy.call_count == 0
    assert _plane_tags(stream) == [residual._P_SPARSE]
    with mock.patch.object(residual, "_deflate_plane",
                           wraps=residual._deflate_plane) as spy:
        encode_residuals(r, "zlib", 6)
    assert spy.call_count == 1


# -- malformed planes --------------------------------------------------------

def _single_plane(tag: int, payload: bytes, n: int) -> bytes:
    return (b"RZC2" + n.to_bytes(8, "little") + bytes([1, 3, tag])
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
                    zlib.compress(bytes(n))[:-6]):     # no end of stream
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


@pytest.mark.parametrize("fmt", ["RZC1", "RZC2"])
def test_declared_count_must_match_the_expected_count(fmt):
    """A header declaring 2**34 residuals fails against the caller's
    count before a buffer the size of that declaration exists."""
    n = 4096 if fmt == "RZC2" else 512
    residuals = np.random.default_rng(7).integers(-40, 40, n)
    stream = bytearray(encode_residuals(residuals))
    assert bytes(stream[:4]) == fmt.encode()
    assert np.array_equal(decode_residuals(stream, count=n), residuals)
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
