"""LibPressio plugin for the fpzip native (floats-only lossless)."""

from __future__ import annotations

from ..core.configurable import Stability
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

    def __init__(self) -> None:
        super().__init__()
        self._backend = "zlib"
        self._level = 1

    def _options(self) -> PressioOptions:
        opts = PressioOptions()
        opts.set("fpzip:backend", self._backend)
        opts.set("fpzip:level", self._level)
        # fpzip's precision option: kept for API fidelity; this
        # reproduction is always full-precision lossless
        opts.set("fpzip:prec", 0)
        opts.set("fpzip:has_header", True)
        return opts

    def _set_options(self, options: PressioOptions) -> None:
        self._backend = str(self._take(options, "fpzip:backend",
                                       OptionType.STRING, self._backend))
        self._level = int(self._take(options, "fpzip:level", OptionType.INT64,
                                     self._level))

    def _configuration(self) -> PressioOptions:
        cfg = PressioOptions()
        cfg.set("pressio:stability", Stability.STABLE)
        cfg.set("pressio:lossy", False)
        cfg.set("fpzip:float_only", True)
        return cfg

    def _documentation(self) -> PressioOptions:
        docs = PressioOptions()
        docs.set("pressio:description",
                 "fpzip-style lossless floating point compressor "
                 "(floats only)")
        docs.set("fpzip:backend", "lossless backend for residuals")
        docs.set("fpzip:level", "backend effort level")
        return docs

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
