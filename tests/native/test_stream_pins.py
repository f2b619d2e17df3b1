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
    ("sz", "nyx", 1e-4): "1edf4012d43a21978d539faf6b9b665f1b1276553a392506c0f162b467c0da49",
    ("sz", "nyx", 1e-2): "8d47b67ba08d9dca6141cfc3af2d69b4f43900f503c28b96579341a478855e98",
    ("sz", "nyx", 1e-9): "ba2ee08533455286626597cd229cf4b742ec5b49adbdb7ecbf34f70924bf730f",
    ("sz", "cloud", 1e-4): "88e01020c6d94ac3d161e359e61824a9cc519df53ddb0984a3b00ae8924269d2",
    ("sz", "cloud", 1e-2): "f5ce1b5e21d3b56f01aa4a9ea9e62ba65cd7c2d81a8667c3ec0bcec1e172aac5",
    ("sz", "cloud", 1e-9): "6b3067d5622f9900990181c9382bea3d7bd5ed3a8a20461ad35a1bc3aef81d16",
    ("sz6", "cloud", 1e-4): "88e01020c6d94ac3d161e359e61824a9cc519df53ddb0984a3b00ae8924269d2",
    ("sz6", "cloud", 1e-2): "f5ce1b5e21d3b56f01aa4a9ea9e62ba65cd7c2d81a8667c3ec0bcec1e172aac5",
    ("zfp", "nyx", 1e-4): "c4ee6c7dc0f6394ab623382ec3e72673115fa16fe68569af96c40755a43abcf0",
    ("zfp", "nyx", 1e-2): "023f69a7057e98acb6a9f21f54ced47dd573cf792cf7704275c7c295b0b5f214",
    ("zfp", "nyx", 1e-9): "026a14fb4b5b3b3a92cbaf1421ab27f0c3945e40dd15fd6f01272ef5cf630c5a",
    ("zfp", "cloud", 1e-4): "4c54ccf29123a81b0fcf5969b29670de9c1d998275b741a9064e759911190f32",
    ("zfp", "cloud", 1e-2): "dbdc921a71d793c31153c06ae4431e8e543b4ef418ebbbfba344edcce78200f2",
    ("zfp", "cloud", 1e-9): "93b75b2365621992edeb928b81df1b0df3b2aadea6bef171ce2a096750b5893a",
    ("mgard", "nyx", 1e-4): "4ea6ce8887d92514890239ba61ff653d205bb7fb54f5f381ea978407a5c423bc",
    ("mgard", "nyx", 1e-2): "3c86faed9f8143540afefed85dc307b46833b8839e672e021b9e6ca814daee9c",
    ("mgard", "nyx", 1e-9): "e2ace6e1556578c2e3b809d45a22a88e6ffa9aa5018e6ae26d7ce53a87f59fcc",
    ("mgard", "nyx", 1e-12): "643e25403b5939a1d5be622ed366ea3efcab8b19dc681109ab3cb7203691cf34",
    ("mgard", "cloud", 1e-4): "0299e4c037eddc27debdd1b448a01714ae9e23d528bd789c93b052aa2bd594d4",
    ("mgard", "cloud", 1e-2): "887132108acd8245cba21ea7d03f93d3cb6a15efa130eeebda24fb0c5f2e84cc",
    ("mgard", "cloud", 1e-9): "6e10a838f040c2dd02fd521265327e0f84dbed0dbdcc1a4e0bdde61a14723f62",
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
