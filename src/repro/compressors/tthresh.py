"""LibPressio plugin for the tthresh (truncated HOSVD) native.

tthresh's bound is a *relative L2* (Frobenius) target — a different
bound family from abs/pointwise compressors, exercising the library's
claim that bound semantics are per-plugin, discoverable through
documentation and configuration rather than hard-coded.
"""

from __future__ import annotations

from ..core.configurable import Field, Stability
from ..core.data import PressioData
from ..core.options import OptionType, PressioOptions
from ..core.registry import compressor_plugin
from ..native import tthresh as native_tthresh
from .staged import NativeCompressor

__all__ = ["TthreshCompressor"]


@compressor_plugin("tthresh")
class TthreshCompressor(NativeCompressor):
    """SVD-principled lossy compression with a relative-L2 target."""

    thread_safety = "multithreaded"
    native = native_tthresh
    description = ("tthresh-style truncated-HOSVD compressor; bounds the "
                   "RELATIVE L2 (Frobenius) error, not the pointwise max")
    fields = (
        Field("tthresh:target_value", "_target", OptionType.DOUBLE,
              positive=True, doc="relative L2 error target (eps)"),
        Field("tthresh:backend", "_backend", OptionType.STRING),
    )

    def __init__(self) -> None:
        super().__init__()
        self._target = 1e-3
        self._backend = "zlib"

    def _options(self) -> PressioOptions:
        opts = super()._options()
        opts.set("tthresh:target_str", "eps")  # relative L2, as tthresh
        return opts

    def _configuration(self) -> PressioOptions:
        cfg = PressioOptions()
        cfg.set("pressio:stability", Stability.STABLE)
        cfg.set("pressio:lossy", True)
        cfg.set("tthresh:norm", "relative_l2")
        return cfg

    def version(self) -> str:
        return "1.0.0.pyrepro"

    def _compress(self, input: PressioData) -> PressioData:
        stream = native_tthresh.compress(self._validated(input), self._target,
                                         backend=self._backend)
        return PressioData.from_bytes(stream)
