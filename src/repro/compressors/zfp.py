"""LibPressio plugin for the ZFP native.

Hands the library's uniform C-order dimensions to the native core as
they are, so callers never meet zfp's Fortran-ordered ``(nx, ny, nz)``
field description — the exact trap (reversed dimension order) Section
V of the paper measures — and exposes zfp's four modes through typed
options.  Serial and staged compression run one path, so an empty
array, which a field description cannot express, compresses on both.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..core.compressor import PressioCompressor
from ..core.configurable import Stability, ThreadSafety
from ..core.data import PressioData
from ..core.dtype import DType, dtype_to_numpy
from ..core.options import OptionType, PressioOptions
from ..core.registry import compressor_plugin
from ..core.status import InvalidOptionError, InvalidTypeError
from ..native import zfp as native_zfp

__all__ = ["ZFPCompressor"]

_MODE_NAMES = {
    native_zfp.MODE_ACCURACY: "accuracy",
    native_zfp.MODE_PRECISION: "precision",
    native_zfp.MODE_RATE: "rate",
    native_zfp.MODE_REVERSIBLE: "reversible",
}
_MODE_IDS = {v: k for k, v in _MODE_NAMES.items()}


@compressor_plugin("zfp")
class ZFPCompressor(PressioCompressor):
    """Transform-based error-bounded lossy compression via the zfp pipeline."""

    thread_safety = "serialized"

    def __init__(self) -> None:
        super().__init__()
        self._stream = native_zfp.zfp_stream_open()

    # -- options ----------------------------------------------------------
    def _options(self) -> PressioOptions:
        opts = PressioOptions()
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
        opts.set("zfp:backend", s.backend)
        opts.set("zfp:level", np.int32(s.level))
        return opts

    def _set_options(self, options: PressioOptions) -> None:
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
        s.backend = str(self._take(options, "zfp:backend", OptionType.STRING,
                                   s.backend))
        s.level = int(self._take(options, "zfp:level", OptionType.INT32,
                                 s.level))

    def _check_options(self, options: PressioOptions) -> None:
        accuracy = options.get("zfp:accuracy", options.get("pressio:abs"))
        if accuracy is not None and float(accuracy) <= 0:
            raise InvalidOptionError("zfp:accuracy must be positive")
        precision = options.get("zfp:precision")
        if precision is not None and not (1 <= int(precision) <= 64):
            raise InvalidOptionError("zfp:precision must be in [1, 64]")
        rate = options.get("zfp:rate")
        if rate is not None and float(rate) < 1:
            raise InvalidOptionError("zfp:rate must be >= 1")
        mode_str = options.get("zfp:mode_str")
        if mode_str is not None and mode_str not in _MODE_IDS:
            raise InvalidOptionError(f"unknown zfp mode {mode_str!r}")

    def _configuration(self) -> PressioOptions:
        cfg = PressioOptions()
        # independent per-instance streams: fully re-entrant
        cfg.set("pressio:thread_safe", ThreadSafety.MULTIPLE)
        cfg.set("pressio:stability", Stability.STABLE)
        cfg.set("pressio:lossy", True)
        cfg.set("zfp:shared_instance", False)
        cfg.set("zfp:modes", sorted(_MODE_IDS))
        return cfg

    def _documentation(self) -> PressioOptions:
        docs = PressioOptions()
        docs.set("pressio:description",
                 "zfp-family transform-based error-bounded lossy compressor")
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
    def _compress(self, input: PressioData) -> PressioData:
        # one path for serial and staged callers, so both write the same
        # bytes and accept the same arrays: a zfp_field cannot describe
        # an empty dimension (0 marks an unused one)
        return self.compress_stage2(self.compress_stage1(input))

    def compress_stage1(self, input: PressioData):
        arr = input.to_numpy()
        if arr.dtype.kind not in "fiu":
            raise InvalidTypeError(f"zfp cannot compress dtype {arr.dtype}")
        dims = input.dims
        if any(0 < d < 4 for d in dims):
            warnings.warn(
                f"zfp pads dimensions smaller than its 4^d block size "
                f"(dims {tuple(dims)}); expect degraded compression ratios",
                stacklevel=2,
            )
        s = self._stream
        return native_zfp.compress_stage1(
            np.asarray(arr).reshape(dims), s.mode, s.parameter,
            backend=s.backend, level=s.level, transform=s.transform)

    def compress_stage2(self, state) -> PressioData:
        return PressioData.from_bytes(native_zfp.compress_stage2(state))

    def _decompress(self, input: PressioData, output: PressioData) -> PressioData:
        expected = output.dims if output.num_dimensions else None
        out = native_zfp.decompress(input.as_memoryview(), expected_dims=expected)
        if output.dtype != DType.BYTE and output.dtype is not None:
            out = out.astype(dtype_to_numpy(output.dtype), copy=False)
        return PressioData.from_numpy(out, copy=False)

