"""LibPressio plugins for the byte-stream lossless codecs.

One plugin id per codec (``zlib``, ``bz2``, ``lzma``, ``pressio-lz``,
``rle``, ``huffman-bytes``, ``memcpy``/``noop``-style copies live in
:mod:`repro.compressors.noop`).  These are the "type-oblivious" class of
compressor from the paper's Table I discussion: they accept any dtype by
flattening to bytes, and dtype/dims travel in a small stream header so
decompression restores the typed, shaped buffer.

:class:`FramedCompressor` states that framing once, for these plugins
and for the precision-trimming ones in :mod:`repro.compressors.rounding`.
"""

from __future__ import annotations

import numpy as np

from ..core.compressor import PressioCompressor
from ..core.configurable import Stability
from ..core.data import PressioData
from ..core.dtype import dtype_to_numpy
from ..core.options import PressioOptions
from ..core.registry import register_compressor
from ..core.status import CorruptStreamError
from ..encoders.headers import read_header, write_header
from ..native.lossless import Codec, codec_ids, get_codec

__all__ = ["FramedCompressor", "LosslessCompressor", "LOSSLESS_PLUGIN_IDS"]


class FramedCompressor(PressioCompressor):
    """A stream header (dtype, dims) in front of one byte codec's payload.

    Decompression checks the header's dims against the output
    template's, then sizes the payload from them, so the codec decodes
    no more bytes than the dims imply.
    """

    #: header magic of the plugin's streams
    magic: bytes
    #: the default byte codec
    codec_name = "zlib"
    #: the plugin's ``pressio:lossy``
    lossy = False
    thread_safety = "multithreaded"

    def __init__(self) -> None:
        super().__init__()
        self._backend = self.codec_name

    def _codec(self, ints: tuple[int, ...] = ()) -> Codec:
        """The codec for a stream whose header holds ``ints``: here
        always the instance's."""
        return get_codec(self._backend)

    def _payload(self, input: PressioData) -> tuple[bytes, tuple[int, ...]]:
        """The bytes to encode and the header's ints."""
        return input.to_bytes(), ()

    def _compress(self, input: PressioData) -> PressioData:
        raw, ints = self._payload(input)
        header = write_header(self.magic, input.dtype, input.dims, ints=ints)
        return PressioData.from_bytes(header + self._codec().encode(raw))

    def _decompress(self, input: PressioData, output: PressioData) -> PressioData:
        stream = input.as_memoryview()
        expected = output.dims if output.num_dimensions else None
        dtype, dims, _d, ints, pos = read_header(stream, self.magic, expected)
        size = PressioData.empty(dtype, dims).size_in_bytes
        raw = self._codec(ints).decode(stream[pos:], size)
        if len(raw) != size:
            raise CorruptStreamError(
                f"decoded {len(raw)} bytes, header dims imply {size}")
        arr = np.frombuffer(raw, dtype=dtype_to_numpy(dtype))
        return PressioData.from_numpy(arr.reshape(dims), copy=True)

    def _configuration(self) -> PressioOptions:
        cfg = PressioOptions()
        cfg.set("pressio:stability", Stability.STABLE)
        cfg.set("pressio:lossy", self.lossy)
        return cfg

    def version(self) -> str:
        return "1.0.0.pyrepro"


class LosslessCompressor(FramedCompressor):
    """Generic wrapper turning a byte codec into a pressio plugin."""

    magic = b"LSL1"

    def _options(self) -> PressioOptions:
        opts = PressioOptions()
        opts.set(f"{self.prefix()}:codec", self._backend)
        return opts

    def _documentation(self) -> PressioOptions:
        docs = PressioOptions()
        docs.set("pressio:description",
                 f"lossless byte-stream compression with {self.codec_name}")
        return docs


def _make_plugin(codec: str) -> type[LosslessCompressor]:
    cls = type(
        f"Lossless_{codec.replace('-', '_')}",
        (LosslessCompressor,),
        {"codec_name": codec, "plugin_id": codec},
    )
    return cls


LOSSLESS_PLUGIN_IDS = tuple(c for c in codec_ids() if c != "memcpy")

for _codec in LOSSLESS_PLUGIN_IDS:
    register_compressor(_codec, _make_plugin(_codec))
