"""One-shot byte-stream lossless codecs.

The "boring" end of the compressor spectrum: type-oblivious codecs that
treat every input as a flat byte stream (the paper's Section V notes
these typically accept no type information at all — that *is* their
interface).  The stdlib-backed entries model linking against zlib/bzip2/
lzma; ``pressio-lz``, ``rle`` and ``huffman-bytes`` are implemented from
scratch in :mod:`repro.encoders`.

Every codec exposes the same two functions — ``encode(bytes) -> bytes``
and ``decode(bytes, size) -> bytes`` — via :func:`get_codec`.  ``size``
is the byte count the caller expects: a decoder allocates no more than
about that much however large the stream claims its output is, so a
small forged stream cannot balloon.  The caller checks the length.
"""

from __future__ import annotations

import bz2
import lzma
import zlib
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from ..encoders.huffman import huffman_decode, huffman_encode
from ..encoders.lz77 import lz77_decode, lz77_encode
from ..encoders.residual import _inflate_at_most
from ..encoders.rle import rle_decode, rle_encode
from ..encoders.varint import varint_decode

__all__ = ["Codec", "get_codec", "codec_ids"]


class Codec(NamedTuple):
    """A lossless byte codec: paired encode/decode callables."""

    name: str
    encode: Callable[[bytes], bytes]
    decode: Callable[[bytes | memoryview, int], bytes]


def _huffman_bytes_encode(data: bytes) -> bytes:
    return huffman_encode(np.frombuffer(data, dtype=np.uint8).astype(np.uint64))


def _huffman_bytes_decode(stream: bytes | memoryview, size: int) -> bytes:
    count, _ = varint_decode(stream, 4)  # HUF1 and HUF2 both start so
    if count != size:
        raise ValueError(
            f"huffman stream declares {count} bytes, expected {size}")
    return huffman_decode(stream).astype(np.uint8).tobytes()


_CODECS: dict[str, Codec] = {
    "zlib": Codec("zlib", lambda b: zlib.compress(b, 6),
                  partial(_inflate_at_most, "zlib")),
    "zlib-fast": Codec("zlib-fast", lambda b: zlib.compress(b, 1),
                       partial(_inflate_at_most, "zlib")),
    "zlib-best": Codec("zlib-best", lambda b: zlib.compress(b, 9),
                       partial(_inflate_at_most, "zlib")),
    "bz2": Codec("bz2", lambda b: bz2.compress(b, 9),
                 partial(_inflate_at_most, "bz2")),
    "lzma": Codec("lzma", lambda b: lzma.compress(b, preset=1),
                  partial(_inflate_at_most, "lzma")),
    "pressio-lz": Codec("pressio-lz", lz77_encode, lz77_decode),
    "rle": Codec("rle", rle_encode, rle_decode),
    "huffman-bytes": Codec("huffman-bytes", _huffman_bytes_encode,
                           _huffman_bytes_decode),
    "memcpy": Codec("memcpy", lambda b: bytes(b), lambda b, size: bytes(b)),
}


def get_codec(name: str) -> Codec:
    """Look up a codec by id; raises KeyError listing known ids."""
    try:
        return _CODECS[name]
    except KeyError:
        raise KeyError(
            f"unknown lossless codec {name!r}; known: {sorted(_CODECS)}"
        ) from None


def codec_ids() -> list[str]:
    """All registered codec ids."""
    return sorted(_CODECS)
