"""Bit Grooming and Digit Rounding compressors.

Both are float "precision trimming" compressors from the paper's plugin
glossary: they zero low-order mantissa bits so the result is more
compressible by a lossless backend, guaranteeing a *relative* error
determined by how many significant bits/digits are kept.

* Bit Grooming keeps ``nsb`` explicit significand bits;
* Digit Rounding keeps ``digits`` significant decimal digits, which maps
  to ``ceil(digits * log2(10))`` significand bits.
"""

from __future__ import annotations

import numpy as np

from ..core.configurable import Field
from ..core.data import PressioData
from ..core.dtype import DType
from ..core.options import OptionType
from ..core.registry import compressor_plugin
from ..core.status import (CorruptStreamError, InvalidOptionError,
                           InvalidTypeError)
from ..native.lossless import Codec, codec_ids, get_codec
from .lossless import FramedCompressor

__all__ = ["BitGroomingCompressor", "DigitRoundingCompressor", "mask_mantissa"]

_MANTISSA_BITS = {np.dtype(np.float32): 23, np.dtype(np.float64): 52}
_UINT_FOR = {np.dtype(np.float32): np.uint32, np.dtype(np.float64): np.uint64}


def mask_mantissa(arr: np.ndarray, keep_bits: int) -> np.ndarray:
    """Zero all but the top ``keep_bits`` mantissa bits (groom to zero).

    The masked value differs from the original by a relative error of at
    most ``2**-keep_bits`` (one ulp at the kept precision).
    """
    mant = _MANTISSA_BITS.get(arr.dtype)
    if mant is None:
        raise InvalidTypeError(
            f"bit grooming only supports float32/float64, got {arr.dtype}"
        )
    if keep_bits >= mant:
        return arr.copy()
    if keep_bits < 0:
        raise InvalidOptionError("keep_bits must be non-negative")
    utype = _UINT_FOR[arr.dtype]
    drop = mant - keep_bits
    mask = ~((np.array(1, dtype=utype) << np.array(drop, dtype=utype))
             - np.array(1, dtype=utype))
    u = np.ascontiguousarray(arr).view(utype)
    return (u & mask).view(arr.dtype)


class _RoundingBase(FramedCompressor):
    """Shared machinery: mask mantissa, then lossless-pack the bytes."""

    magic = b"RND1"
    lossy = True

    def _keep_bits(self) -> int:
        raise NotImplementedError

    def _payload(self, input: PressioData) -> tuple[bytes, tuple[int, ...]]:
        if input.dtype not in (DType.FLOAT, DType.DOUBLE):
            raise InvalidTypeError(
                f"{self.plugin_id} requires float input, got {input.dtype.name}"
            )
        arr = input.to_numpy()
        groomed = mask_mantissa(np.ascontiguousarray(arr), self._keep_bits())
        return groomed.tobytes(), (self._keep_bits(),
                                   codec_ids().index(self._codec().name))

    def _codec(self, ints: tuple[int, ...] = ()) -> Codec:
        """The backend the header names (an index into :func:`codec_ids`);
        streams that predate it name none and use the instance's."""
        if len(ints) < 2:
            return super()._codec()
        ids = codec_ids()
        if not 0 <= ints[1] < len(ids):
            raise CorruptStreamError(f"unknown RND1 backend id {ints[1]}")
        return get_codec(ids[ints[1]])


@compressor_plugin("bit_grooming")
class BitGroomingCompressor(_RoundingBase):
    """Keep ``bit_grooming:nsb`` significand bits, zeroing the rest."""

    description = "bit grooming: keep nsb significand bits for compressibility"
    fields = (
        Field("bit_grooming:nsb", "_nsb", OptionType.INT32, low=0, high=52,
              doc="number of kept significand bits"),
        Field("bit_grooming:backend", "_backend", OptionType.STRING),
    )

    def __init__(self) -> None:
        super().__init__()
        self._nsb = 12

    def _keep_bits(self) -> int:
        return self._nsb


@compressor_plugin("digit_rounding")
class DigitRoundingCompressor(_RoundingBase):
    """Keep ``digit_rounding:prec`` significant decimal digits."""

    description = ("digit rounding: keep a number of significant decimal "
                   "digits")
    fields = (
        Field("digit_rounding:prec", "_digits", OptionType.INT32, low=1,
              high=15, doc="kept significant decimal digits"),
        Field("digit_rounding:backend", "_backend", OptionType.STRING),
    )

    def __init__(self) -> None:
        super().__init__()
        self._digits = 4

    def _keep_bits(self) -> int:
        return int(np.ceil(self._digits * np.log2(10.0)))
