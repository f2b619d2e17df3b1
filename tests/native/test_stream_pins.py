"""Stream pins for the real codecs on the byte-plane (RZC2) path.

The committed golden corpus holds fields below the residual codec's
RZC1 cutoff, so it never reaches the byte-plane encoder.  These pins
do: each is the SHA-256 of ``native.{sz,zfp,mgard}.compress`` on a
seeded field above the cutoff — a nyx-like cube and a slab with the
CLOUD field's 1:5:5 aspect — at value-range-relative bounds 1e-4, 1e-2
and 1e-9, with sz also at effort level 6 (``sz6``).  Together the
configs cover residuals that fit int8, int16 and int32 and ones that
need int64 (mgard/nyx at 1e-9), so a change to the width any stage
runs in that alters one emitted byte fails here.  The 1e-9 bound also
sends sz's and mgard's stage-1 codes down their int64 path rather than
int32.  Every stream is decompressed as well, so a pin cannot hold on
a stream the decoder rejects.

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
    ("sz", "cloud", 1e-4): "47e1db06ec2e55f33d8f407e2351224c852387caf8abad31371698e9c66e9150",
    ("sz", "cloud", 1e-2): "9955b43aaa6b297250cfccfca9a0f6205b67d3049f73184d79c6171e8338028c",
    ("sz", "cloud", 1e-9): "eb06d7db44eaa61ad4a1b090e89daeaa58e8531777c32fb5c97b5665af2cf789",
    ("sz6", "cloud", 1e-4): "f6a0db48fb2f1cfd871e6df87cfc62828ae2c7e95d69434d3cea973a4470f940",
    ("sz6", "cloud", 1e-2): "aef6004cdd87fd96a05b5f419c1982ac377ae9db9ab2d8c4c3c7635e41ba5606",
    ("zfp", "nyx", 1e-4): "10ead710c561e513c27297ad29cfb978985c6cf0c5ab691d34dc3d9252721ef4",
    ("zfp", "nyx", 1e-2): "3db6170f801131d72816cdb1b997b4423982c7736e893278ed59f8ecac35661d",
    ("zfp", "nyx", 1e-9): "299dea7635e4945af5a5c09e41fdb329a115c899f940a32e494e03478bb3168f",
    ("zfp", "cloud", 1e-4): "ee780a541bb7eeb3dea722646f9151088c463ff021a7d86a212a396fdab71b7c",
    ("zfp", "cloud", 1e-2): "fceed94bd9c205b67c04093d03ced52cc2046b79d795c0055dde7fb181461458",
    ("zfp", "cloud", 1e-9): "07788783570cf57080fbf1fad631417c37de306902d1db0bd6bb2d9e532b3703",
    ("mgard", "nyx", 1e-4): "79f0bfd23d7f54c751f9403969810bfcfe71bca68a9330dec707f4cd5c1dcdc6",
    ("mgard", "nyx", 1e-2): "aef99d142efc080936a751223221d8adc55f25b7ec8de3fd3df6dba3bfe0e728",
    ("mgard", "nyx", 1e-9): "4192d2bbb0dcfbc388feaefe3c8ef32fc8569d6efff4c71f92ebe4822e16f17d",
    ("mgard", "cloud", 1e-4): "56b7591e46819315a44c736bfe3725230b84e52c41d9f635c8c74fbaabdeaf82",
    ("mgard", "cloud", 1e-2): "cfde08d045a2276ebe9d8b44b232cb6fd69b84fa1331c157c1944938308ac3e4",
    ("mgard", "cloud", 1e-9): "b87c9172ccc0959c476f647bcb93d61407b0c2454b6a0197ae7030c6a90df7eb",
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
