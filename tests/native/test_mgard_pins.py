"""Stream and output pins for mgard beyond the paper-scale fields.

``test_stream_pins.py`` pins mgard on a 32³ cube and a 10×50×50 slab.
These pins cover the rest of the decomposition's geometry: a 1-D
65 536-element chunk (the ``chunking`` default), odd and even 1-D to
3-D shapes down to the 3-sample minimum, float32 and int32 input, and
the ``s = 1`` level weighting.  Each case pins the SHA-256 of the
stream and of the decompressed array (dtype, shape and bytes), so a
transform change that moves one bit of either fails here.

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
    "chunk1d-1e-4": ("774ab7f926d4a2060ad970702ab018c403fc32408b4b848f027fb0aae85e26fd",
        "cf1f8d9fb13235009d45f7b6427508b53f686c7a45fc717086615a86221feda7"),
    "chunk1d-1e-2": ("2d5e56ef1cb4cd32607b515565a5dacf50698ce254c0ed8e85704f3c80d710ee",
        "72020a3e38bf9ebb3d6f41a1fb8593753576e09308d146f027c97845c399e4f0"),
    "chunk1d-s1": ("3972c0a8a000be016648cb260d37180e66e379e1f19140e2e6585807a3c2d118",
        "25bef76e569a7c4d82bfb02c699d9bed98745ad7624e5e0ad5aab601c812fae9"),
    "1d-3": ("38c5d74d14fce40168140fe16b41c2d2715fe2a1b0cc5835b9a1ad19870712ea",
        "2cda4b68e975e7b3dd19536d0811ce602ee81e8198c9d9bb3f3dc33517f040af"),
    "1d-4": ("7ce4d96cf1ae5faf16326c62a0d5e0d5371e25227fc0e1662fc67ce163a202bd",
        "7ca4569245b61dc13b61dfde31ddabd8d1305f2baeecfa8cfc0f1f566c0c4a78"),
    "1d-6": ("8908fe881e7f7e1f958e493b179723f76c063fc959e5197b7aff0aa42e54a4f9",
        "929069fe75eaed070858d8484529a8bfff4b057205b28bc35c6a8f7b7786d512"),
    "1d-16": ("2837fd7050ab33badc07623fe6fb8a57f74ea4a421103787083ebf91615cce92",
        "8f34411484386dea8c491803f6f32345850400e1e6a7f325147166751e64c6f0"),
    "1d-17": ("a8c19c94737e38ff9609ee457e1b185c67d95acd76b0d11c2083d255cbeb36a9",
        "2021eec6ffea5f1c2b4347b7752951a428edeaecb266bd41864d77c34874b9a5"),
    "1d-1000": ("c07a5d76726d0e61167343bf574ca2b481a00195f268a6302026a5fda1cd480e",
        "90216e4adc6b5a98a903175eca3d176e968ec439782d57278ed3a8e2079a1a99"),
    "2d-3x3": ("30f6e44ea1f2b5bf70846cc85454c6c0be243252065f4a611c292654ca6d1c9e",
        "0562fed84ff5f524bee9e0459a92e56df65d10ae500f3ac975c649a88a9702a5"),
    "2d-3x4": ("47b6535d271ca333a1d8a1905609aa8cc0e52085374c2766e61cf9db73f6aec8",
        "f36e29c01cbe15becca2bd832ba4f48854526c32054c632193bd41ac6d8abf26"),
    "2d-6x5": ("d1e2c6c9b6a1bdb311141ee959fee6fb219e208ed60be6a7359ca9315d3fb475",
        "1a828a9bf7c958f6783f3b1b2a99f3f3d3d524878f870db435941f7070840ff3"),
    "2d-8x8": ("9f0b5dfdb682d38dd9ef2cbfc7b9eff195133a542d9186c048a3fef6c25052e7",
        "2a9407929576966b0b2268a171f081ef92977504f131a527a24b0acce74dccda"),
    "2d-9x13": ("7789752ac5bdfb9e6049851384a7d1919c4a3a61cc3a9a7c9278f8bc685b3c51",
        "8b5d1a752337f46223c0d8260ec7788814523d6089b56374b569f822104f2a2b"),
    "2d-64x33": ("79a0cae7197fb8978955a8745e1c6eca97f289407f398c30afd3bcbc33aabd58",
        "b857a93b5f49510e01d397ee0d515d25398718224502278f100fd1f46df40a6b"),
    "3d-3x3x3": ("764cc4b06048c7ab675ce5199f9bfcd5e429d04664f5e06043bcd6b0b4491307",
        "b474f6c57bb6b12ac9274dbd2e96e7740facda6bc37e5910768852c4ed820c08"),
    "3d-4x3x5": ("ca49429d2b426d98aaa021618554ed4f7a811f9552e361bd0b0c5623816ba625",
        "a05c0a7bd5a01aadf84afa80510623e194607385d8d478447f601cf1c98b20a8"),
    "3d-5x5x5": ("e6cfebe4ffbc6d97164dbf70991f25667684777e3bf2a15fc35ee141ee3e0738",
        "0d47eb842c800fd1a634a61365f64acc8d655e04f1577a8ea4886bf7374250f7"),
    "3d-6x6x5": ("ff22f3f389002d4b2943b995b11639a9b1b0314c99b2b73e0807d2d048c54edc",
        "b69e11e03ce7a8c047baf2d7e0eb205be2a163ab7f45a56960872a98724e08f5"),
    "3d-5x7x9": ("dd708209e074e1c8462f15ed9c770c576a7156dafb8ecc20204ff7ade81339c5",
        "2b176f507cd294e81b199b95fd817fa2d6f3dd8c9f78bca7e9c4760472b86bbf"),
    "3d-12x10x8": ("2bc69e64110e6006f6db42a2231bd96d0e4cee7dbe4b50c43b2e6502b0547448",
        "676016b68c667589b3caf3df29679ef8258933d8280783add39c2b59606daba4"),
    "3d-17x16x6": ("4dac30379e5f38a3e594e4973d687cfc20b27a779c0b8c75e218a5a452b59608",
        "fe2de3eb3c0fe982a7b9dea056a191eb4310110cc031168f7c810dde78f9ffd0"),
    "3d-24x20x18": ("8d830303a5a19d9749e2bf424e3c3e3265ad9d7f2eed7a626a74ce824cfc11a3",
        "31ca8c2d29ebbf83760adebbd7245901427600d0d23b77ba8d224a92263a061b"),
    "f32-9x13": ("ee53deb0c46b01aaa476ed6c00f521f86f9501732bae1cc5e9e335d693d91e59",
        "acb4d3dfe7e5a8c464fa3ea7803ca85501837d67f4273a5ca037836e4c5c8c66"),
    "f32-12x10x8": ("7da9242dd08cb00e0aa7ab659eb87650c93ef49c2e201903b853625df88516d2",
        "92d8a78da9fba068c05693160b663083fad306181701138bf761972bd225c9cb"),
    "i32-17": ("2468ee79328777368d82ef2a409f8a1fd31dca26eb0a47bb3141e40d7922112e",
        "4fcec400c58135e70bc648ea3f3fa6b31cc96f872b58fe489e10fe8ebed809fb"),
    "i32-5x7x9": ("160ef3828de806fdf2b8479cdf494a5c40baa985388da0db8912f7fc1b026381",
        "793b547853fbe25837e90a7d9d6f0b7aaa487838dc869bad46c810c04a8b4ae5"),
    "s1-12x10x8": ("23cb00a5d46e1e9df8c4017552df6ca27320e5298effc46115ce54debb82c7f5",
        "bcf20d6861b31c8bb15d7e0d458ac9776e2920cdadf1839454f9abc278927ef1"),
    "s1-9x13": ("d589ea432a2dd5169875f91c86f3a7995243324d6791f460a9f5d5748fe42aff",
        "c1f9554de0e0ef92ee8c20c67346689f4998688eacad6cac47e1bea1c269a5ad"),
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
    if CASES[name][3] == 0.0:
        err = np.abs(out.astype(np.float64) - arr.astype(np.float64)).max()
        # integer output is rounded: half a unit on top of the bound
        slack = 0.5 if arr.dtype.kind == "i" else 0.0
        assert err <= tol * (1 + 1e-9) + slack


if __name__ == "__main__":
    for key in CASES:
        _arr, stream, out, _tol = _run(key)
        print(f"    \"{key}\": (\"{hashlib.sha256(stream).hexdigest()}\",\n"
              f"        \"{_digest(out)}\"),")
