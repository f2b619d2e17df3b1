"""Byte pins for every length-table slab stream and the frame stream.

``SZMP`` (``sz_omp``) and ``CHK1``/``CHK2`` (``chunking``, and
``pipelined``, which writes the same container) share one slab
container; they and the pipelined ``PSF1`` frames of
``StreamingCompressor`` run on one chunk executor.  Each pin is the
SHA-256 of a stream, or of the array it decodes to, on a seeded field;
a change to the executor, the container or the cuts that alters one
byte fails here.  The ``sz_omp`` pins run at 1, 3 and 4 threads and
include the plain ``SZ02`` stream it writes for inputs too small to
split.

Regenerate (only when a stream format change is intended) with
``python tests/meta/test_slab_pins.py``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import PressioData
from repro.core import DType
from repro.core.dtype import dtype_from_numpy
from repro.core.library import Pressio
from repro.datasets import synthetic
from repro.streaming import StreamingCompressor, StreamingDecompressor

PINS = {
    "chunking/CHK1/sz": ("CHK1",
        "e79d193d10d48174b6a55c0d6dbfd5cb224810d94c12e2f01f9b35ac5f9f7747",
        "3bc272d46b92bef1594bce7cc5f723070a6891463ea941159c3e74fb9d67fef4"),
    "chunking/CHK2/mgard": ("CHK2",
        "c99f9c98ed89fd1e127fc306f471f68dac5af1928d0b8aa458494fc7437e9642",
        "72765c2318157cea9a6cd830f2051acfb722b5dbfc38123bd4f9b7361f85fe57"),
    "chunking/CHK2/sz": ("CHK2",
        "efb4c1cb895c1062ee4c4c752b9aeea8d5f4d7aa1564c70bd7d7f2bae24f4a88",
        "3bc272d46b92bef1594bce7cc5f723070a6891463ea941159c3e74fb9d67fef4"),
    "chunking/CHK2/zfp": ("CHK2",
        "3710b9f6766354f11e8451e7aaa4ed7dfa7be5f47e53ba714720325ff26eb506",
        "3bc272d46b92bef1594bce7cc5f723070a6891463ea941159c3e74fb9d67fef4"),
    "pipelined/sz": ("CHK2",
        "efb4c1cb895c1062ee4c4c752b9aeea8d5f4d7aa1564c70bd7d7f2bae24f4a88",
        "3bc272d46b92bef1594bce7cc5f723070a6891463ea941159c3e74fb9d67fef4"),
    "pipelined/sz_omp": ("CHK2",
        "40e597d547b62dca947314fe44545d8ed6b95088992fffc24a16530e97927152",
        "3bc272d46b92bef1594bce7cc5f723070a6891463ea941159c3e74fb9d67fef4"),
    "streaming/PSF1/sz_threadsafe": ("PSF1",
        "91c2049039a01b860d50f0f185f0efbbd331e597c6c0165cb8f477c52ca4c048",
        "711bb8f0d90dec0fadf074cbbac40f776c2fc9153ed20f6c13e4cf1c9c02bba9"),
    "sz_omp/n1": ("SZMP",
        "f12f0477dd735d6ccca8a574c35f898cd88b07ed72006cebf6019fa7a79f2abf",
        "5987234846b956a9e4ce1c4512bc3835359e930fa25152057639cbd9aba8c71e"),
    "sz_omp/n3": ("SZMP",
        "513d80df9d055b0a56eb61419819f2840a71722d48c0b85f2f3d06d8340f75b2",
        "5987234846b956a9e4ce1c4512bc3835359e930fa25152057639cbd9aba8c71e"),
    "sz_omp/n3/float32": ("SZMP",
        "c728e859d776edde3e70b9fb625ae5a9698e51052396da926865228d1b905bb1",
        "7825708ec5d0a18054e71834847e9652525d8eec214067c4621319312b003a5a"),
    "sz_omp/n4": ("SZMP",
        "0ad0b02284bcc2897b671ab071175390437852345f3027fde59a2150a01c31c2",
        "5987234846b956a9e4ce1c4512bc3835359e930fa25152057639cbd9aba8c71e"),
    "sz_omp/n4/small": ("SZ02",
        "ed5db9d5a46b800d03fcb2ee4b943045354d7670304462fa4f9c889610849103",
        "f50384616486e92fbe09f3e030ac4e069aa6a43e76baf93f480fa218109bf20b"),
}


def _field(shape=(64, 32, 32)) -> np.ndarray:
    return synthetic.nyx(shape, seed=11)


def _case(name: str) -> tuple:
    """``(plugin, options, array)`` of one pinned container case."""
    if name.startswith("sz_omp"):
        n = int(name.split("/")[1][1:])
        arr = _field()
        if name.endswith("small"):
            arr = arr[:5, :8, :8].copy()    # 5 rows < 2 * 4 threads
        elif name.endswith("float32"):
            arr = arr.astype(np.float32)
        return "sz_omp", {"sz_omp:nthreads": n, "pressio:abs": 1e-2}, arr
    if name.startswith("chunking"):
        _, magic, inner = name.split("/")
        arr = _field((30, 24, 24))
        if magic == "CHK1":
            arr = arr.reshape(-1)
        return "chunking", {"chunking:compressor": inner,
                            "chunking:chunk_size": 4096,
                            "chunking:nthreads": 4,
                            "pressio:abs": 1e-2}, arr
    inner = name.split("/")[1]
    return "pipelined", {"pipelined:compressor": inner,
                         "pipelined:chunk_size": 4096,
                         "pressio:abs": 1e-2}, _field((30, 24, 24))


def _container(name: str) -> tuple[bytes, np.ndarray]:
    """The stream of a container case and the array it decodes to."""
    plugin, options, arr = _case(name)
    comp = Pressio().get_compressor(plugin)
    assert comp.set_options(options) == 0, comp.error_msg()
    stream = comp.compress(PressioData.from_numpy(arr)).to_bytes()
    out = comp.decompress(PressioData.from_bytes(stream),
                          PressioData.empty(dtype_from_numpy(arr.dtype),
                                            arr.shape))
    return stream, np.ascontiguousarray(out.to_numpy())


def _frames() -> tuple[bytes, np.ndarray]:
    """A pipelined ``PSF1`` stream over 5 frames and a partial sixth."""
    comp = Pressio().get_compressor("sz_threadsafe")
    assert comp.set_options({"pressio:abs": 1e-2}) == 0
    values = _field((22, 24, 24)).reshape(-1)
    producer = StreamingCompressor(comp, DType.DOUBLE, frame_elements=2304,
                                   pipelined=True, max_workers=3)
    stream = b"".join(producer.write(values[i:i + 1000])
                      for i in range(0, values.size, 1000))
    stream += producer.finish()
    consumer = StreamingDecompressor(comp)
    out = np.concatenate(list(consumer.iter_frames(stream)))
    consumer.close()
    return stream, out


def _streams(name: str) -> tuple[bytes, np.ndarray]:
    return _frames() if name.startswith("streaming") else _container(name)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(PINS))
def test_stream_and_output_are_pinned(name):
    magic, stream_pin, output_pin = PINS[name]
    stream, out = _streams(name)
    assert stream[:4] == magic.encode()
    assert _sha(stream) == stream_pin
    assert _sha(out.tobytes()) == output_pin


if __name__ == "__main__":
    for key in sorted(PINS):
        stream, out = _streams(key)
        print(f'    "{key}": ("{stream[:4].decode()}",\n'
              f'        "{_sha(stream)}",\n'
              f'        "{_sha(out.tobytes())}"),')
