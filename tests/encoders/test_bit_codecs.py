"""Tests for bitstream packing, Huffman, RLE, and LZ77."""

import numpy as np
import pytest

from repro.encoders.bitstream import (
    BitReader,
    BitWriter,
    pack_varwidth,
)
from repro.encoders.huffman import HuffmanCodec, huffman_decode, huffman_encode
from repro.encoders.lz77 import lz77_decode, lz77_encode
from repro.encoders.rle import rle_decode, rle_encode


class TestFixedPacking:
    """Fixed-width packing through the scalar ``BitWriter.write`` /
    ``BitReader.read``, one value per call."""

    @staticmethod
    def _pack(values, width):
        w = BitWriter()
        for v in values:
            w.write(int(v), width)
        return w.getvalue()

    @staticmethod
    def _unpack(packed, count, width):
        r = BitReader(packed)
        return np.array([r.read(width) for _ in range(count)],
                        dtype=np.uint64)

    @pytest.mark.parametrize("width", [1, 3, 8, 13, 32, 50, 64])
    def test_roundtrip(self, width):
        rng = np.random.default_rng(width)
        mask = np.uint64((1 << width) - 1) if width < 64 else np.uint64(2**64 - 1)
        v = rng.integers(0, 2**63, size=257, dtype=np.uint64) & mask
        packed = self._pack(v, width)
        assert np.array_equal(self._unpack(packed, v.size, width), v)

    def test_zero_width(self):
        assert self._pack(np.arange(5, dtype=np.uint64), 0) == b""
        assert np.array_equal(self._unpack(b"", 5, 0), np.zeros(5))

    def test_packed_size(self):
        packed = self._pack(np.zeros(10, dtype=np.uint64), 7)
        assert len(packed) == (10 * 7 + 7) // 8

    def test_invalid_width_raises(self):
        with pytest.raises(ValueError):
            self._pack(np.zeros(1, dtype=np.uint64), 65)
        with pytest.raises(ValueError):
            BitReader(b"\xff" * 9).read(65)

    def test_truncates_to_width(self):
        v = np.array([0b1111], dtype=np.uint64)
        packed = self._pack(v, 2)
        assert self._unpack(packed, 1, 2)[0] == 0b11


class TestVarwidthPacking:
    def test_matches_bitwriter(self):
        values = np.array([5, 1023, 0, 7], dtype=np.uint64)
        widths = np.array([3, 10, 1, 3], dtype=np.int64)
        packed = pack_varwidth(values, widths)
        w = BitWriter()
        for v, wd in zip(values, widths):
            w.write(int(v), int(wd))
        assert packed == w.getvalue()

    def test_zero_width_entries(self):
        values = np.array([0, 5, 0], dtype=np.uint64)
        widths = np.array([0, 3, 0], dtype=np.int64)
        packed = pack_varwidth(values, widths)
        r = BitReader(packed)
        assert r.read(3) == 5

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            pack_varwidth(np.zeros(2, dtype=np.uint64),
                          np.zeros(3, dtype=np.int64))


class TestBitReaderWriter:
    def test_sequential_roundtrip(self):
        w = BitWriter()
        fields = [(5, 3), (0, 1), (1023, 10), (2**40, 48)]
        for value, width in fields:
            w.write(value, width)
        r = BitReader(w.getvalue())
        for value, width in fields:
            assert r.read(width) == value

    def test_bit_length_tracking(self):
        w = BitWriter()
        w.write(1, 5)
        w.write(1, 7)
        assert w.bit_length == 12

    def test_reader_exhaustion_raises(self):
        r = BitReader(b"\xff")
        r.read(8)
        with pytest.raises(ValueError):
            r.read(1)


class TestHuffman:
    def test_roundtrip_skewed(self):
        rng = np.random.default_rng(3)
        s = rng.geometric(0.3, size=20_000).astype(np.uint64)
        assert np.array_equal(huffman_decode(huffman_encode(s)), s)

    def test_roundtrip_uniform(self):
        rng = np.random.default_rng(4)
        s = rng.integers(0, 256, size=5000, dtype=np.uint64)
        assert np.array_equal(huffman_decode(huffman_encode(s)), s)

    def test_single_symbol_stream(self):
        s = np.full(100, 7, dtype=np.uint64)
        assert np.array_equal(huffman_decode(huffman_encode(s)), s)

    def test_empty_stream(self):
        s = np.zeros(0, dtype=np.uint64)
        assert huffman_decode(huffman_encode(s)).size == 0

    def test_skewed_beats_uniform_sizes(self):
        rng = np.random.default_rng(5)
        skewed = rng.geometric(0.5, size=10_000).astype(np.uint64)
        uniform = rng.integers(0, 64, size=10_000, dtype=np.uint64)
        assert len(huffman_encode(skewed)) < len(huffman_encode(uniform))

    def test_codec_table_roundtrip(self):
        codec = HuffmanCodec.from_data(
            np.array([1, 1, 1, 2, 2, 3], dtype=np.uint64))
        table = codec.serialize_table()
        restored, _ = HuffmanCodec.deserialize_table(table)
        assert restored.lengths == codec.lengths
        assert restored.codes == codec.codes

    def test_kraft_inequality(self):
        """Valid prefix code: sum of 2^-len <= 1."""
        rng = np.random.default_rng(6)
        codec = HuffmanCodec.from_data(
            rng.integers(0, 40, size=5000, dtype=np.uint64))
        kraft = sum(2.0 ** -l for l in codec.lengths.values())
        assert kraft <= 1.0 + 1e-12

    def test_codes_are_prefix_free(self):
        codec = HuffmanCodec.from_data(
            np.array([0] * 50 + [1] * 20 + [2] * 5 + [3], dtype=np.uint64))
        items = [(codec.codes[s], codec.lengths[s]) for s in codec.codes]
        for i, (ci, li) in enumerate(items):
            for j, (cj, lj) in enumerate(items):
                if i == j:
                    continue
                if li <= lj:
                    assert (cj >> (lj - li)) != ci

    def test_unknown_symbol_raises(self):
        codec = HuffmanCodec.from_data(np.array([1, 2], dtype=np.uint64))
        with pytest.raises(ValueError):
            codec.encode(np.array([99], dtype=np.uint64))

    def test_bad_magic_raises(self):
        with pytest.raises(ValueError, match="magic"):
            huffman_decode(b"NOPE" + b"\x00" * 16)


class TestRLE:
    def test_roundtrip_runs(self):
        data = b"a" * 1000 + b"b" * 3 + b"c"
        assert rle_decode(rle_encode(data), len(data)) == data

    def test_roundtrip_no_runs(self):
        data = bytes(range(256))
        assert rle_decode(rle_encode(data), len(data)) == data

    def test_empty(self):
        assert rle_decode(rle_encode(b""), 0) == b""

    def test_compresses_runs(self):
        data = b"\x00" * 100_000
        assert len(rle_encode(data)) < 32

    def test_accepts_ndarray(self):
        arr = np.array([1, 1, 2, 2, 2], dtype=np.uint8)
        assert rle_decode(rle_encode(arr), 5) == bytes([1, 1, 2, 2, 2])

    def test_bad_magic_raises(self):
        with pytest.raises(ValueError, match="magic"):
            rle_decode(b"XXXX\x00", 0)


class TestLZ77:
    def test_roundtrip_repetitive(self):
        data = b"the quick brown fox " * 500
        assert lz77_decode(lz77_encode(data), len(data)) == data

    def test_roundtrip_random(self):
        rng = np.random.default_rng(7)
        data = bytes(rng.integers(0, 256, size=4096, dtype=np.uint8))
        assert lz77_decode(lz77_encode(data), len(data)) == data

    def test_roundtrip_overlapping_match(self):
        # distance < match length exercises the overlapped copy
        data = b"ab" * 1000
        assert lz77_decode(lz77_encode(data), len(data)) == data

    def test_empty(self):
        assert lz77_decode(lz77_encode(b""), 0) == b""

    def test_short_input(self):
        assert lz77_decode(lz77_encode(b"abc"), 3) == b"abc"

    def test_compresses_repetition(self):
        data = b"hello world " * 1000
        assert len(lz77_encode(data)) < len(data) // 5

    def test_bad_magic_raises(self):
        with pytest.raises(ValueError, match="magic"):
            lz77_decode(b"XXXX\x00\x00", 0)

    def test_window_limits_matches(self):
        data = b"A" * 100 + bytes(np.arange(256, dtype=np.uint8)) * 300 + b"A" * 100
        small = lz77_encode(data, window=64)
        assert lz77_decode(small, len(data)) == data
