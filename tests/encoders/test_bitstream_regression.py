"""Regression tests for the sequential bit IO edge cases.

Pinned behaviours: zero-width fields are no-ops on both sides (no
spurious padding bits, no errors), widths above 32 — which overflow a
naive int32 weight table — round-trip every bit up to full 64-bit
values, and reading past the end raises.
"""

import numpy as np
import pytest

from repro.encoders.bitstream import BitReader, BitWriter, pack_varwidth


def _wide_values(width: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    mask = np.uint64(2 ** 64 - 1) if width == 64 else np.uint64(
        (1 << width) - 1)
    values = rng.integers(0, 2 ** 63, count, dtype=np.uint64) & mask
    values[0] = mask  # all-ones extreme
    values[1] = 0
    return values


class TestZeroLength:
    def test_zero_width_write_is_noop(self):
        w = BitWriter()
        w.write(12345, 0)
        assert w.bit_length == 0
        assert w.getvalue() == b""

    def test_zero_width_read_consumes_nothing(self):
        r = BitReader(b"\xff")
        assert r.read(0) == 0
        assert r.position == 0

    def test_empty_buffer_reader(self):
        r = BitReader(b"")
        assert r.remaining == 0
        assert r.read(0) == 0
        with pytest.raises(ValueError):
            r.read(1)


class TestWideWidths:
    @pytest.mark.parametrize("width", [33, 40, 57, 63, 64])
    def test_write_read_values_roundtrip(self, width):
        values = _wide_values(width, 101, width)
        w = BitWriter()
        for v in values:
            w.write(int(v), width)
        assert w.bit_length == width * values.size
        r = BitReader(w.getvalue())
        assert [r.read(width) for _ in values] == [int(v) for v in values]

    @pytest.mark.parametrize("width", [33, 48, 64])
    def test_scalar_write_matches_bulk(self, width):
        """The scalar writer and the vectorized ``pack_varwidth`` emit
        the same bytes for wide fixed-width fields."""
        values = _wide_values(width, 17, width + 1)
        scalar = BitWriter()
        for v in values:
            scalar.write(int(v), width)
        bulk = pack_varwidth(values, np.full(values.size, width))
        assert bulk == scalar.getvalue()

    def test_exhaustion_raises(self):
        w = BitWriter()
        w.write(7, 40)
        r = BitReader(w.getvalue())
        assert r.read(40) == 7
        with pytest.raises(ValueError):
            r.read(40)
