"""Stream and output pins for mgard beyond the paper-scale fields.

``test_stream_pins.py`` pins mgard on a 32³ cube and a 10×50×50 slab.
These pins cover the rest of the decomposition's geometry: a 1-D
65 536-element chunk (the ``chunking`` default), odd and even 1-D to
3-D shapes down to the 3-sample minimum, float32 and int32 input, and
the ``s = 1`` level weighting.  Each case pins the SHA-256 of the
stream and of the decompressed array (dtype, shape and bytes), so a
transform change that moves one bit of either fails here, and checks
the absolute bound, which holds for every ``s`` and dtype.

Regenerate (only when a stream format change is intended) with
``python tests/native/test_mgard_pins.py``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.datasets import synthetic
from repro.native import mgard

#: name -> (shape, dtype, relative bound, s)
CASES = {
    "chunk1d-1e-4": ((65536,), "float64", 1e-4, 0.0),
    "chunk1d-1e-2": ((65536,), "float64", 1e-2, 0.0),
    "chunk1d-s1": ((65536,), "float64", 1e-4, 1.0),
    "1d-3": ((3,), "float64", 1e-3, 0.0),
    "1d-4": ((4,), "float64", 1e-3, 0.0),
    "1d-6": ((6,), "float64", 1e-3, 0.0),
    "1d-16": ((16,), "float64", 1e-3, 0.0),
    "1d-17": ((17,), "float64", 1e-3, 0.0),
    "1d-1000": ((1000,), "float64", 1e-3, 0.0),
    "2d-3x3": ((3, 3), "float64", 1e-3, 0.0),
    "2d-3x4": ((3, 4), "float64", 1e-3, 0.0),
    "2d-6x5": ((6, 5), "float64", 1e-3, 0.0),
    "2d-8x8": ((8, 8), "float64", 1e-3, 0.0),
    "2d-9x13": ((9, 13), "float64", 1e-3, 0.0),
    "2d-64x33": ((64, 33), "float64", 1e-3, 0.0),
    "3d-3x3x3": ((3, 3, 3), "float64", 1e-3, 0.0),
    "3d-4x3x5": ((4, 3, 5), "float64", 1e-3, 0.0),
    "3d-5x5x5": ((5, 5, 5), "float64", 1e-3, 0.0),
    "3d-6x6x5": ((6, 6, 5), "float64", 1e-3, 0.0),
    "3d-5x7x9": ((5, 7, 9), "float64", 1e-3, 0.0),
    "3d-12x10x8": ((12, 10, 8), "float64", 1e-3, 0.0),
    "3d-17x16x6": ((17, 16, 6), "float64", 1e-3, 0.0),
    "3d-24x20x18": ((24, 20, 18), "float64", 1e-3, 0.0),
    "f32-9x13": ((9, 13), "float32", 1e-3, 0.0),
    "f32-12x10x8": ((12, 10, 8), "float32", 1e-3, 0.0),
    "i32-17": ((17,), "int32", 1e-3, 0.0),
    "i32-5x7x9": ((5, 7, 9), "int32", 1e-3, 0.0),
    "s1-12x10x8": ((12, 10, 8), "float64", 1e-3, 1.0),
    "s1-9x13": ((9, 13), "float64", 1e-3, 1.0),
}

#: name -> (stream SHA-256, decompressed-array SHA-256)
PINS = {
    "chunk1d-1e-4": ("fc8f260a100a0227600f3bf1b45823c025bb0b21bd8067613465aa66dc3d3e1d",
        "db527090b320636a16aec17a9b3b8cdfc501daf848be4c662515de99487388fd"),
    "chunk1d-1e-2": ("bcd71de45f712ceb4f8f346453a9d3ba8c4d09a384fcaf82606dc45e09fe6212",
        "6ea74a89f71fc6218e70a8caa313a3bdee9b1c392af4e61bf2736935008dda8f"),
    "chunk1d-s1": ("411bb53cfce0dbe618240d866af9d00a80cc47839666798dc5cced8c4b25165a",
        "3ce1a9d3a85facaf3d56b24ef532804cfd34962100e22d7e944509986d0c8421"),
    "1d-3": ("035fe2f2f31834c19b858a240f709186defca05415dc3a4ee45e09a9ace1750f",
        "5358f56a69d2a7d8f1da7bc4bdc51e365b8e3c885704ba062b157d46c0d94ab5"),
    "1d-4": ("93670a0a06a2c17c74030ed75b2a2727e9963e84c596e8dfb35bd4f9deb00628",
        "05d8095ff543054fb2d7faf91c8f8eb546f5f57bd6b2ef6f7eaf96e7b8d52e31"),
    "1d-6": ("b0d4431072b1a8cee438c0e9030f2300e96bc84fe24a7ddd40b56988841cb4c1",
        "6f44638f04a53bbddf93088d79d87d71241b64fa9e6d158df7d2cbdbecc4babc"),
    "1d-16": ("dc033192d8cb465d9a65e0fd747b11bc15506228fa77a7d30244f65b1077f068",
        "33c2c958f3b1017f9eb8cd68a764b3c78d6dd477078dcf4103452e349dad86b9"),
    "1d-17": ("4391ae5ac1688589087785623dac9a386c77a8d9fc56fe17bec5a0048f6ee2e0",
        "0f67bd659dd862344b28a4f114897e762ca4bc9393e31d7d982467100e2efa68"),
    "1d-1000": ("6dd767854c995e2a5892f751a6d0da2c0def95eedc9a422ece2f5b225c81d2a1",
        "702235744d0542aa3f3532adbda292f48fa587457f4563edf524e3e3ed32e30c"),
    "2d-3x3": ("9f87cd774ad09618a4fce0df8b417611397bdbee15bc2bce1373d48af0200652",
        "8931ad79a880a1eba4799d229561311ee79abc6599e3c27b506d06fbca21fedd"),
    "2d-3x4": ("5596a274b2c51d13bf3915fa4614f09cf024c84c8a9eaae7ca90abf80f5e18ab",
        "c17f01a142ab61f8d78d7b526577e669b914a926b075be956959bd14110522f9"),
    "2d-6x5": ("4ff952754af8659e6e76c23bca56728a87d718f1a6eb7632e7e8ae5002f83af1",
        "4d36ee8d5c13f25e8f02a0d9e82dc31262fcc415b5f6b79a00fba51a51e69cca"),
    "2d-8x8": ("2b851d7a7dc36e9cef72b4bcce06e3be684e568088c1976676dc8b84bc846f42",
        "2cea75d0ffd781e8b10c6f5aec5a98dbab16618e7e6430780045a643558bfb51"),
    "2d-9x13": ("2a01495e2f85c44316c467ce133b3ed077c001bf6afcd4ef4f047c20a29f2574",
        "1a383a8197670478c04341aa5fabdb59a4427c2ca270944ba03655bbf3484e32"),
    "2d-64x33": ("9bf83d71f9e1ca64f41c4ae6dae3b39017f287eaefa225134aacae9d31fee38b",
        "cfebca00dbb3552ce89a554bfb9a348453e70f6cf35cb123b70ce1780762dd74"),
    "3d-3x3x3": ("0c769222a1c4fefd55b38a99ec032c2ae944ca8576fb3d871c8aec5f775022e1",
        "b5cbbe9cac2801640713273336cec25be0cf869d830ab67eab3dcf89e47d84b6"),
    "3d-4x3x5": ("7391a8a804fe97234b1b384a28de2f9a6fc7b15497ecea6bcfb44a395ae7c503",
        "360872b26b4f80808aba54d76006c9261b0ce2913738608e2fb134ab3f6d535c"),
    "3d-5x5x5": ("8d35af61ce8ca8de44dc3b04368c7debd6e85138237f43c710bdf0cacdba7f5a",
        "43d650dcbe6a1f9e1726d5602df11a37376146dc0ed5f89022daf274f669ff8d"),
    "3d-6x6x5": ("d55bef402fa7eab4fa5118798d17376826a7701850bafaa5d620dc0b739affa5",
        "685debceb5952d26ad3200e985ee57741ac7e7d81c5ebe7dc046cb3052aa64ee"),
    "3d-5x7x9": ("9cc4560d14c2add7ed6d5707a06393b06ad69d14d7c64c5d897de8cb8fb2b5d1",
        "10a829cebb26bc5e78e000477fe7d34fff859b5bd870b44dc10d9ac49d03ddc2"),
    "3d-12x10x8": ("8b08d6ef09a73eed82895424a95e28bd03edd1d1f83cc026c97ef222dbae40c4",
        "b3a79f1232e5e475536180f9167bf640c3170497fa1f966fbd1099b3fefedd7c"),
    "3d-17x16x6": ("05a7ad3337c1e05369a596b02034dcd8bd0731eb33fa8e66ff84b1cf6828db02",
        "cd6b16045f5d1c5b7c011106fbff8db81d87c5a317a6f1dae33a6916a2e0a19b"),
    "3d-24x20x18": ("55aa399f8834978114ed053c510ae27cb80b46bb1a46c6df9c53ff0cc4fff81e",
        "fd184d24a507fc0933b3bcca033eee1c315b29daf0e0d035e11765f77534ca76"),
    "f32-9x13": ("ec0d92be7f81aab8e37b603f5481335d3cd613da199518bd8115d3403b76ff65",
        "9ee300086b9762438fed870285dbfdbb4324d158a88eb9cc44baf3e6f0d6f625"),
    "f32-12x10x8": ("59688149253241ab818a04121a367eee6f3d6d3774b50ebbaf876eabbbe71d56",
        "346a5c64b37c21c8f2ad5d8b76ad239bd15fd731aa292e66a7ec145e57786e48"),
    "i32-17": ("9c4044b53a28629410115d2bbdebb9afc14f3f1bf6f8a78fea3a7f75cb5a2369",
        "4fcec400c58135e70bc648ea3f3fa6b31cc96f872b58fe489e10fe8ebed809fb"),
    "i32-5x7x9": ("71e4f788150a30626105462b8851be80f1a223673e9c7c00b2febcde149d0f77",
        "0496c1d7813fed412d9ca358aaeca73bb5a428f89d96ad609805d708853c19fc"),
    "s1-12x10x8": ("3a3fc2a2e66e3678ef3491fa8ff98eecbc8985c79ff9f22b9456ef32c00f6d9d",
        "31e4c7f63dacd9868880dbbdb952c70c29b9ff138c331b5bcfa9a31e748f1a6c"),
    "s1-9x13": ("da239521c86c2e50f13548f6b5effdec8fe56d253616ddded4b8052d9a5a3e8d",
        "8071cb207ecc44b48a8685f6bff50cadc0cec9061392f05bbe70b5da4e6be279"),
}


def _field(shape: tuple[int, ...], dtype: str) -> np.ndarray:
    if shape == (65536,):
        return synthetic.nyx((16, 64, 64), seed=7).reshape(-1)
    rng = np.random.default_rng(sum(shape) * 31 + len(shape))
    walk = rng.standard_normal(shape)
    for axis in range(len(shape)):
        walk = walk.cumsum(axis=axis)
    if dtype == "int32":
        return np.rint(walk * 100).astype(np.int32)
    return walk.astype(dtype)


def _digest(arr: np.ndarray) -> str:
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _run(name: str) -> tuple[np.ndarray, bytes, np.ndarray, float]:
    shape, dtype, rel, s = CASES[name]
    arr = _field(shape, dtype)
    tol = rel * float(arr.max() - arr.min())
    stream = mgard.compress(arr, tol, s=s)
    return arr, stream, mgard.decompress(stream), tol


@pytest.mark.parametrize("name", list(CASES))
def test_mgard_stream_and_output_are_pinned(name):
    arr, stream, out, tol = _run(name)
    assert out.dtype == arr.dtype and out.shape == arr.shape
    assert (hashlib.sha256(stream).hexdigest(), _digest(out)) == PINS[name]
    err = np.abs(out.astype(np.float64) - arr.astype(np.float64)).max()
    assert err <= tol * (1 + 1e-9)


if __name__ == "__main__":
    for key in CASES:
        _arr, stream, out, _tol = _run(key)
        print(f"    \"{key}\": (\"{hashlib.sha256(stream).hexdigest()}\",\n"
              f"        \"{_digest(out)}\"),")
