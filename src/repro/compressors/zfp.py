"""LibPressio plugin for the ZFP native.

Hands the library's uniform C-order dimensions to the native core as
they are, so callers never meet zfp's Fortran-ordered ``(nx, ny, nz)``
field description — the exact trap (reversed dimension order) Section
V of the paper measures — and exposes zfp's four modes through typed
options.  Serial and staged compression run one path, so an empty
array, which a field description cannot express, compresses on both.
"""

from __future__ import annotations

import sys
import warnings

import numpy as np

from ..core.configurable import Field, Stability
from ..core.options import OptionType, PressioOptions
from ..core.registry import compressor_plugin
from ..core.status import InvalidOptionError
from ..native import zfp as native_zfp
from .staged import StagedCompressor

__all__ = ["ZFPCompressor"]

_MODE_NAMES = {
    native_zfp.MODE_ACCURACY: "accuracy",
    native_zfp.MODE_PRECISION: "precision",
    native_zfp.MODE_RATE: "rate",
    native_zfp.MODE_REVERSIBLE: "reversible",
}
_MODE_IDS = {v: k for k, v in _MODE_NAMES.items()}


def _caller_stacklevel() -> int:
    """The ``stacklevel`` naming the first frame outside this package:
    serial, observed and ``pipelined`` compress reach stage 1 through
    different depths of library frames."""
    frame, level = sys._getframe(1), 1
    while frame.f_back is not None and frame.f_globals.get(
            "__name__", "").partition(".")[0] == "repro":
        frame, level = frame.f_back, level + 1
    return level


@compressor_plugin("zfp")
class ZFPCompressor(StagedCompressor):
    """Transform-based error-bounded lossy compression via the zfp pipeline."""

    # independent per-instance streams: fully re-entrant
    thread_safety = "multithreaded"
    native = native_zfp
    description = "zfp-family transform-based error-bounded lossy compressor"
    fields = (Field("zfp:backend", "_stream.backend", OptionType.STRING),
              Field("zfp:level", "_stream.level", OptionType.INT32))

    def __init__(self) -> None:
        super().__init__()
        self._stream = native_zfp.zfp_stream_open()

    # -- options ----------------------------------------------------------
    def _options(self) -> PressioOptions:
        # the mode's parameter is reported under the mode's key only
        opts = super()._options()
        s = self._stream
        mode_name = _MODE_NAMES[s.mode]
        opts.set("zfp:execution_name", "serial")
        opts.set("zfp:mode_str", mode_name)
        if s.mode == native_zfp.MODE_ACCURACY:
            opts.set("zfp:accuracy", float(s.parameter))
            opts.set("pressio:abs", float(s.parameter))
        else:
            opts.set_type("zfp:accuracy", OptionType.DOUBLE)
            opts.set_type("pressio:abs", OptionType.DOUBLE)
        if s.mode == native_zfp.MODE_PRECISION:
            opts.set("zfp:precision", np.uint32(int(s.parameter)))
        else:
            opts.set_type("zfp:precision", OptionType.UINT32)
        if s.mode == native_zfp.MODE_RATE:
            opts.set("zfp:rate", float(s.parameter))
        else:
            opts.set_type("zfp:rate", OptionType.DOUBLE)
        opts.set("zfp:reversible",
                 bool(s.mode == native_zfp.MODE_REVERSIBLE))
        return opts

    def _set_options(self, options: PressioOptions) -> None:
        super()._set_options(options)
        s = self._stream
        mode_str = options.get("zfp:mode_str")
        if mode_str is not None:
            if mode_str not in _MODE_IDS:
                raise InvalidOptionError(
                    f"unknown zfp mode {mode_str!r}; known: {sorted(_MODE_IDS)}"
                )
            s.mode = _MODE_IDS[str(mode_str)]
        accuracy = options.get("zfp:accuracy", options.get("pressio:abs"))
        if accuracy is not None:
            native_zfp.zfp_stream_set_accuracy(s, float(accuracy))
        precision = options.get("zfp:precision")
        if precision is not None:
            native_zfp.zfp_stream_set_precision(s, int(precision))
        rate = options.get("zfp:rate")
        if rate is not None:
            native_zfp.zfp_stream_set_rate(s, float(rate))
        if options.get("zfp:reversible"):
            native_zfp.zfp_stream_set_reversible(s)

    def _configuration(self) -> PressioOptions:
        cfg = PressioOptions()
        cfg.set("pressio:stability", Stability.STABLE)
        cfg.set("pressio:lossy", True)
        cfg.set("zfp:shared_instance", False)
        cfg.set("zfp:modes", sorted(_MODE_IDS))
        return cfg

    def _documentation(self) -> PressioOptions:
        docs = super()._documentation()
        docs.set("zfp:mode_str",
                 "mode: accuracy, precision, rate, reversible")
        docs.set("zfp:accuracy", "absolute error tolerance (accuracy mode)")
        docs.set("zfp:precision", "kept bit planes per block (precision mode)")
        docs.set("zfp:rate", "bits per value (rate mode, approximate)")
        docs.set("zfp:reversible", "bit-exact lossless round trip")
        docs.set("pressio:abs", "cross-compressor absolute error bound")
        return docs

    def version(self) -> str:
        return "0.5.5.pyrepro"

    # -- compression --------------------------------------------------------
    def _stage1(self, arr, dims):
        if any(0 < d < 4 for d in dims):
            warnings.warn(
                f"zfp pads dimensions smaller than its 4^d block size "
                f"(dims {tuple(dims)}); expect degraded compression ratios",
                stacklevel=_caller_stacklevel(),
            )
        s = self._stream
        return native_zfp.compress_stage1(
            np.asarray(arr).reshape(dims), s.mode, s.parameter,
            backend=s.backend, level=s.level, transform=s.transform)
