"""LibPressio plugin for the fpzip native (floats-only lossless)."""

from __future__ import annotations

from ..core.configurable import Field, Stability
from ..core.data import PressioData
from ..core.dtype import DType
from ..core.options import OptionType, PressioOptions
from ..core.registry import compressor_plugin
from ..core.status import InvalidTypeError
from ..native import fpzip as native_fpzip
from .staged import NativeCompressor

__all__ = ["FpzipCompressor"]


@compressor_plugin("fpzip")
class FpzipCompressor(NativeCompressor):
    """Lossless floating-point compression via the fpzip pipeline.

    Rejects non-float inputs, reproducing the type-awareness example the
    paper builds its data-abstraction argument on.
    """

    thread_safety = "multithreaded"
    native = native_fpzip
    description = ("fpzip-style lossless floating point compressor "
                   "(floats only)")
    # fpzip's precision and header options are kept for API fidelity:
    # this reproduction is always full-precision lossless and always
    # writes its header, so those are the only values it accepts
    fields = (
        Field("fpzip:backend", "_backend", OptionType.STRING,
              doc="lossless backend for residuals"),
        Field("fpzip:level", "_level", OptionType.INT64,
              doc="backend effort level"),
        Field("fpzip:prec", "_prec", OptionType.INT64, choices=(0,)),
        Field("fpzip:has_header", "_has_header", OptionType.BOOL,
              choices=(True,)),
    )
    _prec = 0
    _has_header = True

    def __init__(self) -> None:
        super().__init__()
        self._backend = "zlib"
        self._level = 1

    def _configuration(self) -> PressioOptions:
        cfg = PressioOptions()
        cfg.set("pressio:stability", Stability.STABLE)
        cfg.set("pressio:lossy", False)
        cfg.set("fpzip:float_only", True)
        return cfg

    def version(self) -> str:
        return "1.3.0.pyrepro"

    def _compress(self, input: PressioData) -> PressioData:
        if input.dtype not in (DType.FLOAT, DType.DOUBLE):
            raise InvalidTypeError(
                f"fpzip only accepts float32/float64, got {input.dtype.name}"
            )
        stream = native_fpzip.compress(input.to_numpy(), backend=self._backend,
                                       level=self._level)
        return PressioData.from_bytes(stream)
