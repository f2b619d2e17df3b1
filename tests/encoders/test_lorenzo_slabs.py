"""Lorenzo decode: slab adds and ``cumsum`` agree bit for bit.

``lorenzo_decode`` runs a leading axis as one in-place add per slab when
the axis's slabs are large and made of long rows, and as ``cumsum``
otherwise.  The oracle here is the per-axis ``cumsum`` decode every axis
used before the slab path existed; both are wrap-around uint64 sums, so
they must agree on every bit, on both sides of the gate.
"""

import numpy as np
import pytest

from repro.encoders import lorenzo_decode, lorenzo_encode
from repro.encoders._reference import _decode_lorenzo_reference


def _cumsum_decode(residuals: np.ndarray) -> np.ndarray:
    """The all-``cumsum`` decode: one accumulate per axis, last first."""
    arr = np.ascontiguousarray(residuals, dtype=np.int64).view(np.uint64)
    arr = arr.copy()
    for axis in range(arr.ndim - 1, -1, -1):
        np.cumsum(arr, axis=axis, dtype=np.uint64, out=arr)
    return arr.view(np.int64)


#: shape -> the axes that run as slab adds; the gate is a slab of at
#: least 4096 elements in rows of at least 64
SHAPES = {
    (5,): [],
    (100_000,): [],
    (64, 64): [],
    (4096, 2): [],
    (2, 4096): [0],
    (1000, 3, 3): [],
    (16, 16, 16): [],
    (64, 64, 63): [],
    (64, 64, 64): [0, 1],
    (3, 3, 100_000): [0, 1],
    (4, 64, 64): [0],
    (8, 8, 8, 8): [],
    (2, 2, 32, 64): [0, 1],
    (2, 8, 16, 64): [0],
}


def _field(shape, seed=0):
    return np.random.default_rng(seed).integers(
        -2 ** 40, 2 ** 40, size=shape, dtype=np.int64)


def _slab_axes(shape, monkeypatch) -> list[int]:
    """The axes ``lorenzo_decode`` does not hand to ``np.cumsum``."""
    cumsum_axes = []
    cumsum = np.cumsum

    def spy(a, axis=None, **kwargs):
        cumsum_axes.append(axis)
        return cumsum(a, axis=axis, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np, "cumsum", spy)
        lorenzo_decode(np.zeros(shape, dtype=np.int64))
    return sorted(set(range(len(shape))) - set(cumsum_axes))


def test_shapes_cover_both_sides_of_the_gate(monkeypatch):
    for shape, axes in SHAPES.items():
        assert _slab_axes(shape, monkeypatch) == axes, shape
    # a 1-D array has only its last axis, which is always a cumsum
    for ndim in (2, 3, 4):
        sides = {bool(axes) for shape, axes in SHAPES.items()
                 if len(shape) == ndim}
        assert sides == {True, False}, ndim


@pytest.mark.parametrize("shape", list(SHAPES), ids=str)
def test_matches_cumsum_decode(shape):
    residuals = _field(shape)
    assert lorenzo_decode(residuals).tobytes() == \
        _cumsum_decode(residuals).tobytes()


@pytest.mark.parametrize("shape", [(2, 4096), (3, 3, 100_000),
                                   (2, 2, 32, 64), (64, 64, 63)], ids=str)
def test_int64_extremes_wrap_identically(shape):
    extremes = np.array([2 ** 63 - 1, -2 ** 63, 2 ** 62, -2 ** 62, -1, 0],
                        dtype=np.int64)
    residuals = np.random.default_rng(1).choice(extremes, size=shape)
    decoded = lorenzo_decode(residuals)
    assert decoded.tobytes() == _cumsum_decode(residuals).tobytes()
    # and the wrap-around inverts: encode gives the residuals back
    assert lorenzo_encode(decoded).tobytes() == residuals.tobytes()


@pytest.mark.parametrize("layout", ["fortran", "strided", "transposed",
                                    "int32", "big-endian"])
@pytest.mark.parametrize("clobber", [False, True])
def test_any_layout_and_dtype(layout, clobber):
    base = _field((4, 64, 64), seed=2)
    residuals = {
        "fortran": np.asfortranarray(base),
        "strided": _field((8, 64, 128), seed=2)[::2, :, ::2],
        "transposed": base.transpose(2, 1, 0),
        "int32": base.astype(np.int32),
        "big-endian": base.astype(">i8"),
    }[layout]
    expected = _cumsum_decode(residuals)
    kept = residuals.copy()
    decoded = lorenzo_decode(residuals, clobber=clobber)
    assert decoded.dtype == np.int64 and decoded.flags.c_contiguous
    assert decoded.tobytes() == expected.tobytes()
    # none of these layouts is a C-contiguous int64 array, so even
    # clobber=True decodes into a copy
    assert np.array_equal(residuals, kept)


@pytest.mark.parametrize("shape", [(2, 4096), (64, 64), (2, 2, 32, 64)],
                         ids=str)
def test_clobber_false_leaves_the_input_untouched(shape):
    residuals = _field(shape, seed=3)
    kept = residuals.copy()
    decoded = lorenzo_decode(residuals)
    assert not np.shares_memory(decoded, residuals)
    assert residuals.tobytes() == kept.tobytes()


def test_clobber_true_decodes_a_c_contiguous_int64_input_in_place():
    residuals = _field((2, 2, 32, 64), seed=4)
    expected = _cumsum_decode(residuals)
    decoded = lorenzo_decode(residuals, clobber=True)
    assert np.shares_memory(decoded, residuals)
    assert decoded.tobytes() == expected.tobytes()


def test_small_shape_over_the_gate_matches_the_scalar_reference():
    shape = (2, 2, 32, 64)
    assert SHAPES[shape] == [0, 1]
    residuals = _field(shape, seed=5)
    assert lorenzo_decode(residuals).tobytes() == \
        _decode_lorenzo_reference(residuals).tobytes()
