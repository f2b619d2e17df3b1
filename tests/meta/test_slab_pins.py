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
        "6b784e76f70586faf9941c688714d6ab14f2cef17d0d29799b3b180ea576010f",
        "3bc272d46b92bef1594bce7cc5f723070a6891463ea941159c3e74fb9d67fef4"),
    "chunking/CHK2/mgard": ("CHK2",
        "46ccca3aed54b167a25c1c19168c290ef9cd8341ddaa184be581477f4130b593",
        "72765c2318157cea9a6cd830f2051acfb722b5dbfc38123bd4f9b7361f85fe57"),
    "chunking/CHK2/sz": ("CHK2",
        "313925ceab6b723f06b4bb06f116d797f122e97e5b56678a866b0d0e5b080639",
        "3bc272d46b92bef1594bce7cc5f723070a6891463ea941159c3e74fb9d67fef4"),
    "chunking/CHK2/zfp": ("CHK2",
        "a7f35a0968ca4ac5d4879b255a6764ef09a37b2ee2120185c968659e4649efa7",
        "3bc272d46b92bef1594bce7cc5f723070a6891463ea941159c3e74fb9d67fef4"),
    "pipelined/sz": ("CHK2",
        "313925ceab6b723f06b4bb06f116d797f122e97e5b56678a866b0d0e5b080639",
        "3bc272d46b92bef1594bce7cc5f723070a6891463ea941159c3e74fb9d67fef4"),
    "pipelined/sz_omp": ("CHK2",
        "f34edea736be9eb6cbf3a5dbd556434fdb7e577ffeec7679d817d3abc756a9c5",
        "3bc272d46b92bef1594bce7cc5f723070a6891463ea941159c3e74fb9d67fef4"),
    "streaming/PSF1/sz_threadsafe": ("PSF1",
        "12491992fdd66ea66034400910ee806ecd12ec887c629800a3819622a5309e6f",
        "711bb8f0d90dec0fadf074cbbac40f776c2fc9153ed20f6c13e4cf1c9c02bba9"),
    "sz_omp/n1": ("SZMP",
        "7ba10e8dd9ddc15aac58ab5f8843fe9a0f74b13db816031e8d664d0711e83f4b",
        "5987234846b956a9e4ce1c4512bc3835359e930fa25152057639cbd9aba8c71e"),
    "sz_omp/n3": ("SZMP",
        "8cc5d7dae24af6213ca1f33afde633dfb5fb190bfd0540ae2f1f2b5f5d3f8626",
        "5987234846b956a9e4ce1c4512bc3835359e930fa25152057639cbd9aba8c71e"),
    "sz_omp/n3/float32": ("SZMP",
        "63d0280192ac216b4ca2ae817cf97ed450cf4bb7ecb54c2f7508d72a1c1799f8",
        "7825708ec5d0a18054e71834847e9652525d8eec214067c4621319312b003a5a"),
    "sz_omp/n4": ("SZMP",
        "343d2aed4108b56fabaa0e05ebb8bbc4151ea7b18257ce6b1e8db1a2f6742849",
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
