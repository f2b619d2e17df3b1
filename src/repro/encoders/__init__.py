"""Shared encoding substrate used by the from-scratch native compressors.

Everything here is implemented from first principles on NumPy:

* :mod:`~repro.encoders.zigzag` — signed/unsigned integer mapping
* :mod:`~repro.encoders.varint` — LEB128 variable-length integers
* :mod:`~repro.encoders.residual` — byte-plane residual codec
* :mod:`~repro.encoders.bitstream` — variable-width bit packing and
  sequential bit readers/writers
* :mod:`~repro.encoders.huffman` — canonical Huffman coding
* :mod:`~repro.encoders.rle` — run-length coding
* :mod:`~repro.encoders.lz77` — sliding-window LZ coding
* :mod:`~repro.encoders.predictors` — Lorenzo finite-difference predictors
* :mod:`~repro.encoders.quantize` — linear quantization helpers
* :mod:`~repro.encoders.headers` — binary stream header helpers
"""

from .zigzag import zigzag_decode, zigzag_encode
from .varint import varint_decode, varint_decode_array, varint_encode, varint_encode_array
from .residual import decode_residuals, encode_residuals
from .predictors import lorenzo_decode, lorenzo_encode
from .quantize import dequantize_uniform, quantize_uniform

__all__ = [
    "zigzag_encode",
    "zigzag_decode",
    "varint_encode",
    "varint_decode",
    "varint_encode_array",
    "varint_decode_array",
    "encode_residuals",
    "decode_residuals",
    "lorenzo_encode",
    "lorenzo_decode",
    "quantize_uniform",
    "dequantize_uniform",
]
