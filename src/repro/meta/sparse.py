"""The ``sparse`` meta-compressor (paper future-work item 3).

The paper's conclusion lists "better support for sparse data
compression" as future work.  This meta-compressor implements the
standard mask-and-values factorization: values equal to a fill value
(e.g. the zeros that dominate a CLOUD field, or a simulation's missing-
data sentinel) are removed, a packed occupancy bitmap is stored
(zlib-compressed), and only the remaining values go to the inner
compressor as a 1-D stream.

For data with occupancy fraction p, the cost is ~n/8 bitmap bytes plus
the compression of p*n values — a large win when p is small and the
fill regions would otherwise dilute the inner compressor's statistics.

Options: ``sparse:fill_value`` (default 0.0), ``sparse:compressor``.
"""

from __future__ import annotations

import zlib

import numpy as np

from ..core.data import PressioData
from ..core.dtype import DType, dtype_to_numpy
from ..core.options import OptionType, PressioOptions
from ..core.registry import compressor_plugin
from ..core.status import CorruptStreamError
from ..encoders.headers import read_header, write_header
from ..encoders.residual import _inflate_at_most
from .base import MetaCompressor

__all__ = ["SparseCompressor"]

_MAGIC = b"SPR1"


@compressor_plugin("sparse")
class SparseCompressor(MetaCompressor):
    """Mask out a fill value; compress only the occupied entries."""

    default_inner = "sz"

    def __init__(self) -> None:
        super().__init__()
        self._fill_value = 0.0

    def _meta_options(self) -> PressioOptions:
        opts = PressioOptions()
        opts.set("sparse:fill_value", float(self._fill_value))
        return opts

    def _set_meta_options(self, options: PressioOptions) -> None:
        self._fill_value = float(self._take(
            options, "sparse:fill_value", OptionType.DOUBLE,
            self._fill_value))

    def _compress(self, input: PressioData) -> PressioData:
        arr = np.asarray(input.to_numpy()).reshape(-1)
        occupied = arr != self._fill_value
        n_occupied = int(occupied.sum())
        bitmap = zlib.compress(np.packbits(occupied).tobytes(), 1)
        if n_occupied:
            values = np.ascontiguousarray(arr[occupied])
            inner_stream = self._inner.compress(
                PressioData.from_numpy(values, copy=False)).to_bytes()
        else:
            inner_stream = b""
        header = write_header(
            _MAGIC, input.dtype, input.dims,
            doubles=(self._fill_value,),
            ints=(n_occupied, len(bitmap)))
        return PressioData.from_bytes(header + bitmap + inner_stream)

    def _decompress(self, input: PressioData, output: PressioData) -> PressioData:
        view = input.as_memoryview()
        expected = output.dims if output.num_dimensions else None
        dtype, dims, doubles, ints, pos = read_header(view, _MAGIC, expected)
        fill_value = doubles[0]
        n_occupied, bitmap_len = ints
        n = int(np.prod(dims, dtype=np.int64)) if dims else 0
        # the bitmap inflates to the size the dims fix, and no further
        nbytes = (n + 7) // 8
        try:
            bitmap = _inflate_at_most("zlib", view[pos:pos + bitmap_len],
                                      nbytes)
        except ValueError as e:
            raise CorruptStreamError(f"sparse bitmap: {e}") from None
        occupied = np.unpackbits(
            np.frombuffer(bitmap, dtype=np.uint8), count=n).astype(bool)
        if int(occupied.sum()) != n_occupied:
            raise CorruptStreamError(
                "sparse bitmap does not match recorded occupancy")
        np_dtype = dtype_to_numpy(dtype)
        out = np.full(n, fill_value, dtype=np_dtype)
        if n_occupied:
            template = PressioData.empty(dtype, (n_occupied,))
            values = self._inner.decompress(
                PressioData.from_bytes(bytes(view[pos + bitmap_len:])),
                template)
            out[occupied] = np.asarray(values.to_numpy()).reshape(-1)
        return PressioData.from_numpy(out.reshape(dims), copy=False)
