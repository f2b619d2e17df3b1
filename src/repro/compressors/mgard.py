"""LibPressio plugin for the MGARD native.

Surfaces MGARD's tolerance/s-norm parameters as typed options (a
non-positive tolerance is rejected by ``set_options`` and so by
``check_options``) and keeps its hard requirement of >= 3 samples per
dimension discoverable through the ``mgard:min_dimension_size``
configuration entry and reported as a typed error before the native runs.
"""

from __future__ import annotations

from ..core.configurable import Field, Stability
from ..core.options import OptionType, PressioOptions
from ..core.registry import compressor_plugin
from ..core.status import InvalidDimensionsError
from ..native import mgard as native_mgard
from .staged import StagedCompressor

__all__ = ["MGARDCompressor"]


@compressor_plugin("mgard")
class MGARDCompressor(StagedCompressor):
    """Multigrid error-bounded lossy compression via the MGARD pipeline."""

    thread_safety = "multithreaded"
    native = native_mgard
    description = "MGARD-family multigrid error-bounded lossy compressor"
    # pressio:abs aliases the tolerance: the later field wins, and the
    # final value is checked
    fields = (
        Field("mgard:tolerance", "_tolerance", OptionType.DOUBLE,
              positive=True, doc="absolute L-infinity error tolerance"),
        Field("mgard:s", "_s", OptionType.DOUBLE,
              doc="smoothness-norm parameter (0 = infinity norm)"),
        Field("mgard:backend", "_backend", OptionType.STRING,
              doc="lossless backend for the level codes: zlib, bz2, lzma, "
                  "none"),
        Field("pressio:abs", "_tolerance", OptionType.DOUBLE, positive=True,
              doc="cross-compressor absolute error bound"),
    )

    def __init__(self) -> None:
        super().__init__()
        self._tolerance = 1e-3
        self._s = 0.0
        self._backend = "zlib"
        self._level = 1

    def _configuration(self) -> PressioOptions:
        cfg = PressioOptions()
        cfg.set("pressio:stability", Stability.STABLE)
        cfg.set("pressio:lossy", True)
        cfg.set("mgard:min_dimension_size", native_mgard.MIN_DIM)
        return cfg

    def version(self) -> str:
        return "0.1.0.pyrepro"

    # -- compression --------------------------------------------------------
    def _stage1(self, arr, dims):
        # the multigrid hierarchy needs >= MIN_DIM samples per dimension;
        # fail here with a taxonomy-coded error instead of deep in the native
        if any(d < native_mgard.MIN_DIM for d in dims):
            raise InvalidDimensionsError(
                f"mgard requires >= {native_mgard.MIN_DIM} samples per "
                f"dimension, got dims {tuple(dims)}"
            )
        return native_mgard.compress_stage1(arr, self._tolerance, self._s,
                                            backend=self._backend,
                                            level=self._level)
