"""Streams written by the open-loop mgard encoder (magic ``MGD1``) keep
decoding to the bytes they decoded to when they were written.

The three fixtures under ``compat/`` were produced by the last encoder
that wrote ``MGD1``: a 1-D 65 536-value chunk (the ``chunking``
default), a 3-D odd shape, and an ``s = 1`` stream, each
``mgard.compress(field, rel * value_range, s=s)`` of the field and
bound listed below.  Each test pins the
SHA-256 of the decoded array (dtype, shape and bytes) and the open-loop
bound, so a decoder change that moves one bit of an old stream fails
here.  The fixtures are data: never regenerate them.
"""

from __future__ import annotations

import hashlib
import pathlib

import numpy as np
import pytest

from repro.datasets import synthetic
from repro.native import mgard

COMPAT = pathlib.Path(__file__).parent / "compat"

#: file -> (shape, relative bound, s, decoded-array SHA-256)
FIXTURES = {
    "mgd1_chunk1d.bin": ((65536,), 1e-2, 0.0,
        "72020a3e38bf9ebb3d6f41a1fb8593753576e09308d146f027c97845c399e4f0"),
    "mgd1_5x7x9.bin": ((5, 7, 9), 1e-3, 0.0,
        "2b176f507cd294e81b199b95fd817fa2d6f3dd8c9f78bca7e9c4760472b86bbf"),
    "mgd1_s1_12x10x8.bin": ((12, 10, 8), 1e-3, 1.0,
        "bcf20d6861b31c8bb15d7e0d458ac9776e2920cdadf1839454f9abc278927ef1"),
}


def _field(shape: tuple[int, ...]) -> np.ndarray:
    if shape == (65536,):
        return synthetic.nyx((16, 64, 64), seed=7).reshape(-1)
    rng = np.random.default_rng(sum(shape) * 31 + len(shape))
    walk = rng.standard_normal(shape)
    for axis in range(len(shape)):
        walk = walk.cumsum(axis=axis)
    return walk


def _digest(arr: np.ndarray) -> str:
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", list(FIXTURES))
def test_mgd1_stream_decodes_to_its_pinned_output(name):
    shape, rel, s, want = FIXTURES[name]
    stream = (COMPAT / name).read_bytes()
    assert stream[:4] == b"MGD1"
    out = mgard.decompress(stream)
    assert _digest(out) == want
    arr = _field(shape)
    if s == 0.0:
        tol = rel * float(arr.max() - arr.min())
        assert np.abs(out - arr).max() <= tol * (1 + 1e-9)

