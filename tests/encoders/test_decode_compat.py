"""Decode-only fixtures: streams written by earlier encoders still decode.

The files under ``compat/`` were written by the residual encoder at
revision 63a02d9, before the per-plane deflate strategy choice:

* ``rzc2_planes_l1.bin`` / ``rzc2_planes_l6.bin`` — one three-plane
  RZC2 stream at effort levels 1 and 6 (Huffman-only ZLIB planes, a
  SPARSE plane at level 1, and a match-searching ZLIB plane at 6);
* ``rzc1_small.bin`` — a 1500-residual RZC1 stream;
* ``sz_abs_1e4.bin`` / ``zfp_acc_1e4.bin`` — the golden corpus's sz and
  zfp streams of that revision, whose residuals are RZC1.

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
from repro.encoders.residual import decode_residuals

COMPAT = pathlib.Path(__file__).parent / "compat"

#: file -> (magic, SHA-256 of the decoded int64 residuals)
RESIDUAL_STREAMS = {
    "rzc2_planes_l1.bin": (b"RZC2", "c4f2ce05807af1128a5493e7447a481b"
                                    "220de5a71d93a3735b451c1fccb64218"),
    "rzc2_planes_l6.bin": (b"RZC2", "c4f2ce05807af1128a5493e7447a481b"
                                    "220de5a71d93a3735b451c1fccb64218"),
    "rzc1_small.bin": (b"RZC1", "a2c42a657a3718ec41561797516ff66c"
                                "e0f920eab8143fdba99e68e8da5cc47b"),
}

#: file -> (plugin, SHA-256 of the 1024 decoded doubles)
CODEC_STREAMS = {
    "sz_abs_1e4.bin": ("sz", "e673b434833c6562c73596658342c241"
                             "22c9861d0bd271257ef6f27f13b561dc"),
    "zfp_acc_1e4.bin": ("zfp", "e673b434833c6562c73596658342c241"
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
    plugin, digest = CODEC_STREAMS[name]
    stream = (COMPAT / name).read_bytes()
    assert b"RZC1" in stream
    out = compressor_registry.create(plugin).decompress(
        PressioData.from_bytes(stream),
        PressioData.empty(DType.DOUBLE, (1024,)))
    values = np.ascontiguousarray(out.to_numpy(), dtype=np.float64)
    assert hashlib.sha256(values.tobytes()).hexdigest() == digest
