"""Decode-only fixtures: streams written by earlier encoders still decode.

The files under ``compat/`` were written by the residual encoder at
revision 63a02d9, before the per-plane deflate strategy choice:

* ``rzc2_planes_l1.bin`` / ``rzc2_planes_l6.bin`` — one three-plane
  RZC2 stream at effort levels 1 and 6 (Huffman-only ZLIB planes, a
  SPARSE plane at level 1, and a match-searching ZLIB plane at 6);
* ``rzc1_small.bin`` — a 1500-residual RZC1 stream;
* ``sz_abs_1e4.bin`` / ``zfp_acc_1e4.bin`` — the golden corpus's sz and
  zfp streams of that revision, whose residuals are RZC1.

Written at revision 73aa2bc, before the low-effort entropy gate lost its
20 % margin and planes could be split into nibbles:

* ``rzc2_wide{2,3,5,8}_l1.bin`` — the 2-, 3-, 5- and 8-plane streams of
  ``test_rzc2_planes.test_multi_plane_pin`` at effort level 1 (RAW low
  planes, a BITPACK top plane).

Written by the nibble-split encoder:

* ``rzc2_nibble_l1.bin`` — the 2-plane input above at level 1, whose
  top plane is a NIBBLE plane (tag 5) of an odd length, so it carries
  the odd last byte; it decodes to the same values as
  ``rzc2_wide2_l1.bin``.

Written at revision 3016231, the last encoder that wrote RZC1:

* ``rzc1_{bz2,lzma,none}.bin`` — one 1500-residual input through each
  of those backends, which always wrote RZC1; 32 of its codes are 255
  or more (two of them the int64 extremes), so each stream carries the
  8-byte overflow stream;
* ``sz_abs_1e4_v5.bin`` / ``zfp_acc_1e4_v5.bin`` — the golden corpus's
  version-5 sz and zfp streams, whose residuals are RZC2 as the zlib
  backend wrote it below 2048 residuals then.

Written at revision 2687230, before low-width planes were packed:

* ``rzc2_huff_l1.bin`` / ``rzc2_rle_l1.bin`` — one-plane streams of
  2**18 residuals at effort level 1, whose values are mostly below 3
  (a few up to 200 or 90), each a ZLIB plane (tag 4) deflated
  Huffman-only and with ``Z_RLE``; that revision wrote the same bytes
  at level 6;
* ``rzc2_match_l6.bin`` — a periodic input of the same widths at level
  6, whose ZLIB plane the match-searching strategy won;
* ``rzc2_lzma_xz.bin`` — a 1500-residual two-plane input through
  ``lzma``, each plane in a full ``.xz`` container.

Written by the packing encoder:

* ``rzc2_packed_l1.bin`` — ``rzc2_huff_l1.bin``'s values at level 1,
  one PACKED plane (tag 6) at 2 bits with an escape tail.

Each must decode, forever, to the values whose SHA-256 is recorded
here.  An encoder may change what it writes; it may not change what an
old stream means.
"""

from __future__ import annotations

import hashlib
import pathlib

import numpy as np
import pytest

from repro import PressioData
from repro.core.dtype import DType
from repro.core.registry import compressor_registry
from repro.encoders import residual
from repro.encoders.residual import decode_residuals

from .test_rzc2_planes import _plane_tags

COMPAT = pathlib.Path(__file__).parent / "compat"

#: file -> (magic, SHA-256 of the decoded int64 residuals)
RESIDUAL_STREAMS = {
    "rzc2_planes_l1.bin": (b"RZC2", "c4f2ce05807af1128a5493e7447a481b"
                                    "220de5a71d93a3735b451c1fccb64218"),
    "rzc2_planes_l6.bin": (b"RZC2", "c4f2ce05807af1128a5493e7447a481b"
                                    "220de5a71d93a3735b451c1fccb64218"),
    "rzc1_small.bin": (b"RZC1", "a2c42a657a3718ec41561797516ff66c"
                                "e0f920eab8143fdba99e68e8da5cc47b"),
    "rzc2_wide2_l1.bin": (b"RZC2", "57408fa9e72f50a4002a36ff13243c77"
                                   "3dfd2bb463a4bed9040a943bbd14d901"),
    "rzc2_wide3_l1.bin": (b"RZC2", "4868b6a4588f459776c0d93ca10e808e"
                                   "2e4e272164ea5e620baa3e26fccb8f57"),
    "rzc2_wide5_l1.bin": (b"RZC2", "c9f356eb8400b7b6eebf684893edd5be"
                                   "1811a1bf1b4049b5a3b4eb8c766b6b6b"),
    "rzc2_wide8_l1.bin": (b"RZC2", "027c72f07616e118dad9438047b028f8"
                                   "2e9f16d89e609340d9483ca31e830ce9"),
    "rzc2_nibble_l1.bin": (b"RZC2", "57408fa9e72f50a4002a36ff13243c77"
                                    "3dfd2bb463a4bed9040a943bbd14d901"),
    "rzc1_bz2.bin": (b"RZC1", "ec63ed14b43f6e397c767219004d525b"
                              "bd7774277fb305055c6cc8602396d046"),
    "rzc1_lzma.bin": (b"RZC1", "ec63ed14b43f6e397c767219004d525b"
                               "bd7774277fb305055c6cc8602396d046"),
    "rzc1_none.bin": (b"RZC1", "ec63ed14b43f6e397c767219004d525b"
                               "bd7774277fb305055c6cc8602396d046"),
    "rzc2_huff_l1.bin": (b"RZC2", "73c971b0a58df20ca6b0d5930442c202"
                                  "45ac1331478419307a7f79e949f0bbf2"),
    "rzc2_rle_l1.bin": (b"RZC2", "2416a8c42e66db6805ac31df26cfc51f"
                                 "d9bb873927bfab36e68292730984298c"),
    "rzc2_match_l6.bin": (b"RZC2", "d41d0f7f7314a2f4619209d1f8afaf1b"
                                   "842684041bf4490148e5cf6faa1bca6b"),
    "rzc2_lzma_xz.bin": (b"RZC2", "b2a6d26e24a27f3820ead13104013ab9"
                                  "9969c0161da3df07a4fd5133da4319b7"),
    "rzc2_packed_l1.bin": (b"RZC2", "73c971b0a58df20ca6b0d5930442c202"
                                    "45ac1331478419307a7f79e949f0bbf2"),
}

#: file -> (plugin, residual format inside, SHA-256 of the 1024 decoded
#: doubles)
CODEC_STREAMS = {
    "sz_abs_1e4.bin": ("sz", b"RZC1", "e673b434833c6562c73596658342c241"
                                      "22c9861d0bd271257ef6f27f13b561dc"),
    "zfp_acc_1e4.bin": ("zfp", b"RZC1", "e673b434833c6562c73596658342c241"
                                        "22c9861d0bd271257ef6f27f13b561dc"),
    "sz_abs_1e4_v5.bin": ("sz", b"RZC2", "e673b434833c6562c73596658342c241"
                                         "22c9861d0bd271257ef6f27f13b561dc"),
    "zfp_acc_1e4_v5.bin": ("zfp", b"RZC2",
                           "e673b434833c6562c73596658342c241"
                           "22c9861d0bd271257ef6f27f13b561dc"),
}


@pytest.mark.parametrize("name", list(RESIDUAL_STREAMS))
def test_residual_stream_decodes_to_recorded_values(name):
    magic, digest = RESIDUAL_STREAMS[name]
    stream = (COMPAT / name).read_bytes()
    assert stream[:4] == magic
    out = decode_residuals(stream)
    assert out.dtype == np.int64
    assert hashlib.sha256(out.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("name", list(CODEC_STREAMS))
def test_codec_stream_decodes_to_recorded_values(name):
    plugin, magic, digest = CODEC_STREAMS[name]
    stream = (COMPAT / name).read_bytes()
    assert magic in stream
    out = compressor_registry.create(plugin).decompress(
        PressioData.from_bytes(stream),
        PressioData.empty(DType.DOUBLE, (1024,)))
    values = np.ascontiguousarray(out.to_numpy(), dtype=np.float64)
    assert hashlib.sha256(values.tobytes()).hexdigest() == digest


def test_nibble_fixture_holds_a_nibble_plane():
    stream = (COMPAT / "rzc2_nibble_l1.bin").read_bytes()
    assert _plane_tags(stream) == [residual._P_RAW, residual._P_NIBBLE]
    assert int.from_bytes(stream[4:12], "little") % 2 == 1


@pytest.mark.parametrize("backend", ["bz2", "lzma", "none"])
def test_rzc1_fixtures_carry_the_overflow_stream(backend):
    stream = (COMPAT / f"rzc1_{backend}.bin").read_bytes()
    assert int.from_bytes(stream[12:20], "little") == 32
    assert stream[20] == residual._BACKEND_IDS[backend]


@pytest.mark.parametrize("name", ["rzc2_huff_l1.bin", "rzc2_rle_l1.bin",
                                  "rzc2_match_l6.bin"])
def test_low_width_fixtures_hold_a_zlib_plane(name):
    stream = (COMPAT / name).read_bytes()
    assert int.from_bytes(stream[4:12], "little") == 2 ** 18
    assert _plane_tags(stream) == [residual._P_ZLIB]


def test_packed_fixture_holds_a_packed_plane_with_escapes():
    stream = (COMPAT / "rzc2_packed_l1.bin").read_bytes()
    assert _plane_tags(stream) == [residual._P_PACKED]
    w, body_len = stream[23], int.from_bytes(stream[24:32], "little")
    assert w == 2 and 32 + body_len < len(stream)  # a tail follows


#: the ``.xz`` stream header magic
_XZ_MAGIC = b"\xfd7zXZ\x00"


def test_lzma_planes_drop_the_xz_container():
    """The old fixture's planes are ``.xz`` streams; the encoder now
    writes each plane in the bare ``.lzma`` framing, smaller, and the
    decoder reads both."""
    old = (COMPAT / "rzc2_lzma_xz.bin").read_bytes()
    assert old[13] == residual._BACKEND_IDS["lzma"]
    assert old.count(_XZ_MAGIC) == 2
    values = decode_residuals(old)
    new = residual.encode_residuals(values, "lzma", 1)
    assert _plane_tags(new) == _plane_tags(old) == [residual._P_ZLIB] * 2
    assert _XZ_MAGIC not in new
    assert len(new) < len(old)
    assert np.array_equal(decode_residuals(new), values)
