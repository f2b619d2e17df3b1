"""The ``noop`` compressor: byte-for-byte copy with full metadata.

Useful as a baseline (compression ratio exactly 1.0 minus header
overhead), as the cheapest possible plugin for overhead measurements,
and as the default leaf for meta-compressor tests.
"""

from __future__ import annotations

from ..core.registry import compressor_plugin
from .lossless import FramedCompressor

__all__ = ["NoopCompressor"]


@compressor_plugin("noop")
class NoopCompressor(FramedCompressor):
    """Stores the input verbatim behind a self-describing header."""

    magic = b"NOP1"
    codec_name = "memcpy"
    description = "identity compressor (baseline)"
