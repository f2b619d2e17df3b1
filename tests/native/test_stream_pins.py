"""Stream pins for the real codecs on the byte-plane (RZC2) path.

The committed golden corpus holds 1024-value fields, whose byte
planes are all shorter than the residual codec's 2048-byte small-plane
limit, so it never reaches the gated plane chooser.  These pins do:
each is the SHA-256 of ``native.{sz,zfp,mgard}.compress`` on a seeded
field above that limit — a nyx-like cube and a slab with the
CLOUD field's 1:5:5 aspect — at value-range-relative bounds 1e-4, 1e-2
and 1e-9, with sz also at effort level 6 (``sz6``) and mgard/nyx also
at 1e-12.  Together the configs cover residuals that fit int8, int16
and int32 and ones that need int64 (mgard/nyx at 1e-12), so a change
to the width any stage runs in that alters one emitted byte fails
here.  The 1e-9 bound also sends sz's and mgard's stage-1 codes down
their int64 path rather than int32.  Every stream is decompressed as
well, so a pin cannot hold on a stream the decoder rejects.

Regenerate (only when a stream format change is intended) with
``python tests/native/test_stream_pins.py``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.datasets import synthetic
from repro.native import mgard, sz, zfp
from repro.native.sz import REL, SZ_DEFAULT_COMPRESSION, sz_params

PINS = {
    ("sz", "nyx", 1e-4): "a39ea6a8d48bba841a3f06576a675ad826cd45795fb7e371901ac30b72d2ae77",
    ("sz", "nyx", 1e-2): "785b6c478205a8a820da80a3a23d65849f0149347feef374e688604cc2b629d2",
    ("sz", "nyx", 1e-9): "6fef1930d0d916cc4ace675280baba947a30651eaa08d7a5173cdd429351cbed",
    ("sz", "cloud", 1e-4): "d3e8cc1ef850d633ff8c99d47a1bccec0d58c585d3320ce06826a9114d13dc11",
    ("sz", "cloud", 1e-2): "50f3b57bc38d9c6fe1912ec2ed2f25cb39a31f732dd36035f82ce6192a6c3d9c",
    ("sz", "cloud", 1e-9): "b12b21dab23665a4b268f2be3eeb88ddd2c65daa58f54644b4666ef916b83f8e",
    ("sz6", "cloud", 1e-4): "d3e8cc1ef850d633ff8c99d47a1bccec0d58c585d3320ce06826a9114d13dc11",
    ("sz6", "cloud", 1e-2): "50f3b57bc38d9c6fe1912ec2ed2f25cb39a31f732dd36035f82ce6192a6c3d9c",
    ("zfp", "nyx", 1e-4): "072d9dfd9962fee71d938edeed3779a840c491f4ac377efcc592906084c3bfdd",
    ("zfp", "nyx", 1e-2): "3db6170f801131d72816cdb1b997b4423982c7736e893278ed59f8ecac35661d",
    ("zfp", "nyx", 1e-9): "299dea7635e4945af5a5c09e41fdb329a115c899f940a32e494e03478bb3168f",
    ("zfp", "cloud", 1e-4): "d0a4ba5b53ff2c683205bcb6f29add7e89bfb9317f4d71e4bce3c7c1a9ffa253",
    ("zfp", "cloud", 1e-2): "476bf07079d5dabd5dfdf1a4d68fb61fdea3dbd00d16b30c238f86891d68fac9",
    ("zfp", "cloud", 1e-9): "3fdaff7b98327e9b11d77419aba5eebdc6635a487843befa67f63a655306ac58",
    ("mgard", "nyx", 1e-4): "3ff046a13362bbd498b42bae5f98adfffe6f83df94743940dce387de5205fece",
    ("mgard", "nyx", 1e-2): "392a76659410c61ff6f888013efec10df7e2df50a0f2807396eb857ab842900d",
    ("mgard", "nyx", 1e-9): "80867f53932163cc4af1463ff605dff1f0cf2e30f5907093074034528b23dced",
    ("mgard", "nyx", 1e-12): "71c455cc0c184a2e0be094d0e8a6071bc568734c78038a17db0acb8d7ea9541c",
    ("mgard", "cloud", 1e-4): "df225235898f541e8fd541c221bdf23b2e61e06f5054ec03394284a73db522b1",
    ("mgard", "cloud", 1e-2): "9b8d90ba45d300b195405391316ead0199c921541c1185ed4f0d2145d0e3717b",
    ("mgard", "cloud", 1e-9): "feb911c273f451869e8a5f547cb372598d192c036ee79327620f9a581d5bdaf8",
}

_FIELDS: dict[str, np.ndarray] = {}


def _field(name: str) -> np.ndarray:
    if name not in _FIELDS:
        _FIELDS[name] = (synthetic.nyx((32, 32, 32), seed=7)
                         if name == "nyx"
                         else synthetic.hurricane_cloud((10, 50, 50), seed=7))
    return _FIELDS[name]


def _compress(codec: str, arr: np.ndarray, rel: float) -> bytes:
    abs_bound = rel * float(arr.max() - arr.min())
    if codec == "sz":
        return sz.compress(arr, sz_params(errorBoundMode=REL,
                                          relBoundRatio=rel))
    if codec == "sz6":
        return sz.compress(arr, sz_params(errorBoundMode=REL,
                                          relBoundRatio=rel,
                                          szMode=SZ_DEFAULT_COMPRESSION))
    if codec == "zfp":
        return zfp.compress(arr, zfp.MODE_ACCURACY, abs_bound)
    return mgard.compress(arr, abs_bound)


def _decompress(codec: str, stream: bytes) -> np.ndarray:
    if codec in ("sz", "sz6"):
        return sz.decompress(stream)
    if codec == "zfp":
        return zfp.decompress(stream)
    return mgard.decompress(stream)


@pytest.mark.parametrize("key", list(PINS), ids=lambda k: "-".join(map(str, k)))
def test_stream_is_pinned(key):
    codec, name, rel = key
    arr = _field(name)
    stream = _compress(codec, arr, rel)
    assert b"RZC2" in stream
    assert hashlib.sha256(stream).hexdigest() == PINS[key]
    out = _decompress(codec, stream)
    bound = rel * float(arr.max() - arr.min())
    assert np.abs(out - arr).max() <= bound * (1 + 1e-9)


if __name__ == "__main__":
    for key in PINS:
        digest = hashlib.sha256(_compress(key[0], _field(key[1]),
                                          key[2])).hexdigest()
        print(f"    {key!r}: \"{digest}\",")
