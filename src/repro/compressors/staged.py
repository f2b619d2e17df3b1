"""The contract of a plugin over a from-scratch native core, stated once.

sz, zfp, mgard, tthresh and fpzip share it: compress accepts float and
integer arrays only (fpzip floats only) and hands the native a
read-only view, so a native that clobbers its input can never reach
user data; decompress passes the output template's C-order dims to the
native decoder, which rejects a stream declaring other dims before it
sizes any buffer, and casts the result to the template's dtype.

:class:`StagedCompressor` adds the two-stage compress of sz, zfp and
mgard, which is their only compress path.
"""

from __future__ import annotations

from types import ModuleType

import numpy as np

from ..core.compressor import PressioCompressor
from ..core.data import PressioData
from ..core.dtype import DType, dtype_to_numpy
from ..core.status import InvalidTypeError

__all__ = ["NativeCompressor", "StagedCompressor"]


class NativeCompressor(PressioCompressor):
    """A leaf plugin whose native decodes with ``decompress(stream,
    expected_dims=...)``."""

    #: the native package or module the plugin wraps
    native: ModuleType
    thread_safety = "serialized"

    def _validated(self, input: PressioData) -> np.ndarray:
        """``input`` as a read-only array, rejecting non-numeric dtypes."""
        arr = input.to_numpy()
        if arr.dtype.kind not in "fiu":
            raise InvalidTypeError(
                f"{self.plugin_id} cannot compress dtype {arr.dtype}")
        return arr

    def _decompress(self, input: PressioData, output: PressioData) -> PressioData:
        expected = output.dims if output.num_dimensions else None
        return self._as_template(
            self.native.decompress(input.as_memoryview(),
                                   expected_dims=expected), output)

    @staticmethod
    def _as_template(out: np.ndarray, output: PressioData) -> PressioData:
        """``out`` in the template's dtype, unless that is untyped."""
        if output.dtype != DType.BYTE and output.dtype is not None:
            out = out.astype(dtype_to_numpy(output.dtype), copy=False)
        return PressioData.from_numpy(out, copy=False)


class StagedCompressor(NativeCompressor):
    """A native plugin whose compress is split into two stages.

    Stage 1 (quantize / predict / transform) is numpy work that holds
    the GIL; stage 2 (entropy coding and framing) is zlib/bz2/lzma work
    that releases it, so ``pipelined`` can overlap stage 2 of one chunk
    with stage 1 of the next.  Serial compress runs the same pair::

        compress(x) == compress_stage2(compress_stage1(x))   # bytes

    The state token may alias pooled scratch buffers: pass each token
    to stage 2 exactly once, and do not reuse it afterwards.
    """

    def _stage1(self, arr: np.ndarray, dims: tuple[int, ...]):
        """The native's stage 1 over the validated ``arr`` of ``dims``."""
        raise NotImplementedError

    def compress_stage1(self, input: PressioData):
        return self._stage1(self._validated(input), input.dims)

    def compress_stage2(self, state) -> PressioData:
        return PressioData.from_bytes(self.native.compress_stage2(state))

    def _compress(self, input: PressioData) -> PressioData:
        return self.compress_stage2(self.compress_stage1(input))

    def supports_stage_split(self) -> bool:
        return True
