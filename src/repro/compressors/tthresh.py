"""LibPressio plugin for the tthresh (truncated HOSVD) native.

tthresh's bound is a *relative L2* (Frobenius) target — a different
bound family from abs/pointwise compressors, exercising the library's
claim that bound semantics are per-plugin, discoverable through
documentation and configuration rather than hard-coded.
"""

from __future__ import annotations

from ..core.configurable import Stability
from ..core.data import PressioData
from ..core.options import OptionType, PressioOptions
from ..core.registry import compressor_plugin
from ..core.status import InvalidOptionError
from ..native import tthresh as native_tthresh
from .staged import NativeCompressor

__all__ = ["TthreshCompressor"]


@compressor_plugin("tthresh")
class TthreshCompressor(NativeCompressor):
    """SVD-principled lossy compression with a relative-L2 target."""

    thread_safety = "multithreaded"
    native = native_tthresh

    def __init__(self) -> None:
        super().__init__()
        self._target = 1e-3
        self._backend = "zlib"

    def _options(self) -> PressioOptions:
        opts = PressioOptions()
        opts.set("tthresh:target_value", float(self._target))
        opts.set("tthresh:target_str", "eps")  # relative L2, as tthresh
        opts.set("tthresh:backend", self._backend)
        return opts

    def _set_options(self, options: PressioOptions) -> None:
        target = float(self._take(options, "tthresh:target_value",
                                  OptionType.DOUBLE, self._target))
        if target <= 0:
            raise InvalidOptionError("tthresh:target_value must be positive")
        self._target = target
        self._backend = str(self._take(options, "tthresh:backend",
                                       OptionType.STRING, self._backend))

    def _configuration(self) -> PressioOptions:
        cfg = PressioOptions()
        cfg.set("pressio:stability", Stability.STABLE)
        cfg.set("pressio:lossy", True)
        cfg.set("tthresh:norm", "relative_l2")
        return cfg

    def _documentation(self) -> PressioOptions:
        docs = PressioOptions()
        docs.set("pressio:description",
                 "tthresh-style truncated-HOSVD compressor; bounds the "
                 "RELATIVE L2 (Frobenius) error, not the pointwise max")
        docs.set("tthresh:target_value", "relative L2 error target (eps)")
        return docs

    def version(self) -> str:
        return "1.0.0.pyrepro"

    def _compress(self, input: PressioData) -> PressioData:
        stream = native_tthresh.compress(self._validated(input), self._target,
                                         backend=self._backend)
        return PressioData.from_bytes(stream)
