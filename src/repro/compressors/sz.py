"""LibPressio plugin for the SZ native.

Hides every SZ API hazard behind the uniform interface: the global
init/finalize lifecycle becomes reference counting, the reversed
five-argument dimension convention becomes the library's C-order dims,
input buffers are passed as read-only views so SZ's clobbering can never
reach user data, and the 27-field params struct becomes introspectable
typed options (including the cross-compressor ``pressio:abs`` /
``pressio:rel`` aliases).
"""

from __future__ import annotations

import threading

from ..core.configurable import Field, Stability
from ..core.options import OptionType, PressioOptions
from ..core.registry import compressor_plugin
from ..core.status import InvalidOptionError
from ..native import sz as native_sz
from ..native.sz.params import ERROR_BOUND_MODES, sz_params
from .staged import StagedCompressor

__all__ = ["SZCompressor"]

_MODE_NAMES = {v: k for k, v in ERROR_BOUND_MODES.items() if k != "vr_rel"}

# process-wide reference count modelling SZ_Init/SZ_Finalize sharing
_refcount = 0
_ref_lock = threading.Lock()


def _acquire_sz() -> None:
    global _refcount
    with _ref_lock:
        if _refcount == 0:
            native_sz.SZ_Init(sz_params())
        _refcount += 1


def _release_sz() -> None:
    global _refcount
    with _ref_lock:
        _refcount -= 1
        if _refcount == 0:
            native_sz.SZ_Finalize()


#: the doc of the options of SZ's API that ``sz_params`` stores but our
#: native does not consult
_STORED_ONLY = ("kept for SZ API parity: stored and reported, not "
                "consulted by this native")


@compressor_plugin("sz")
class SZCompressor(StagedCompressor):
    """Error-bounded lossy compression via the SZ-family pipeline."""

    thread_safety = "single"
    native = native_sz
    description = "SZ-family prediction-based error-bounded lossy compressor"
    fields = (
        Field("sz:error_bound_mode", "_params.errorBoundMode",
              OptionType.INT32),
        Field("sz:abs_err_bound", "_params.absErrBound", OptionType.DOUBLE,
              doc="absolute error bound (mode abs)"),
        Field("sz:rel_err_bound", "_params.relBoundRatio", OptionType.DOUBLE,
              doc="value-range relative bound (mode rel)"),
        Field("sz:pw_rel_err_bound", "_params.pw_relBoundRatio",
              OptionType.DOUBLE, doc="pointwise relative bound (mode pw_rel)"),
        Field("sz:psnr_err_bound", "_params.psnr", OptionType.DOUBLE,
              doc="target PSNR in dB (mode psnr)"),
        Field("sz:norm_err_bound", "_params.normErrBound", OptionType.DOUBLE),
        Field("sz:sz_mode", "_params.szMode", OptionType.INT32,
              doc="0=SZ_BEST_SPEED 1=SZ_DEFAULT_COMPRESSION "
                  "2=SZ_BEST_COMPRESSION"),
        Field("sz:lossless_compressor", "_params.losslessCompressor",
              OptionType.STRING,
              doc="lossless backend: zlib, bz2, lzma, none"),
        Field("sz:entropy_coder", "_params.entropyCoder", OptionType.STRING,
              doc="residual coder: fast or huffman"),
        Field("sz:prediction_mode", "_params.predictionMode",
              OptionType.STRING,
              doc="lorenzo, none, regression, or adaptive (SZ 2.x per-block"
                  "\n                 regression selection)"),
        Field("sz:max_quant_intervals", "_params.max_quant_intervals",
              OptionType.INT64, doc=_STORED_ONLY),
        Field("sz:quantization_intervals", "_params.quantization_intervals",
              OptionType.INT64, doc=_STORED_ONLY),
        Field("sz:sample_distance", "_params.sampleDistance",
              OptionType.INT64, doc=_STORED_ONLY),
        Field("sz:pred_threshold", "_params.predThreshold",
              OptionType.DOUBLE, doc=_STORED_ONLY),
        Field("sz:segment_size", "_params.segment_size",
              OptionType.INT64, doc=_STORED_ONLY),
        Field("sz:snapshot_cmpr_step", "_params.snapshotCmprStep",
              OptionType.INT64, doc=_STORED_ONLY),
        Field("sz:with_regression", "_params.withRegression",
              OptionType.INT64, doc=_STORED_ONLY),
        Field("sz:protect_value_range", "_params.protectValueRange",
              OptionType.INT64, doc=_STORED_ONLY),
        Field("sz:accelerate_pw_rel_compression",
              "_params.accelerate_pw_rel_compression", OptionType.INT64,
              doc=_STORED_ONLY),
        Field("sz:plus_bits", "_params.plus_bits",
              OptionType.INT64, doc=_STORED_ONLY),
        Field("sz:random_access", "_params.randomAccess",
              OptionType.INT64, doc=_STORED_ONLY),
        Field("sz:data_endian_type", "_params.dataEndianType",
              OptionType.INT64, doc=_STORED_ONLY),
    )

    def __init__(self) -> None:
        super().__init__()
        self._params = sz_params()
        _acquire_sz()

    def _release_native(self) -> None:
        _release_sz()

    # -- options ----------------------------------------------------------
    def _options(self) -> PressioOptions:
        opts = super()._options()
        p = self._params
        opts.set("sz:error_bound_mode_str", _MODE_NAMES[p.errorBoundMode])
        # cross-compressor common options (paper Section IV-B)
        if p.errorBoundMode == native_sz.ABS:
            opts.set("pressio:abs", float(p.absErrBound))
        else:
            opts.set_type("pressio:abs", OptionType.DOUBLE)
        if p.errorBoundMode == native_sz.REL:
            opts.set("pressio:rel", float(p.relBoundRatio))
        else:
            opts.set_type("pressio:rel", OptionType.DOUBLE)
        return opts

    def _set_options(self, options: PressioOptions) -> None:
        super()._set_options(options)
        p = self._params
        mode_str = options.get("sz:error_bound_mode_str")
        if mode_str is not None:
            try:
                p.errorBoundMode = ERROR_BOUND_MODES[str(mode_str)]
            except KeyError:
                raise InvalidOptionError(
                    f"unknown error bound mode {mode_str!r}; known: "
                    f"{sorted(ERROR_BOUND_MODES)}"
                ) from None
        # cross-compressor aliases override the specific fields
        if options.get("pressio:abs") is not None:
            p.errorBoundMode = native_sz.ABS
            p.absErrBound = options.get_as("pressio:abs", OptionType.DOUBLE)
        if options.get("pressio:rel") is not None:
            p.errorBoundMode = native_sz.REL
            p.relBoundRatio = options.get_as("pressio:rel", OptionType.DOUBLE)
        try:
            p.validate()
        except ValueError as e:
            raise InvalidOptionError(str(e)) from None

    def _configuration(self) -> PressioOptions:
        cfg = PressioOptions()
        cfg.set("pressio:stability", Stability.STABLE)
        cfg.set("pressio:lossy", True)
        cfg.set("sz:shared_instance", True)
        cfg.set("sz:error_bound_modes", sorted(ERROR_BOUND_MODES))
        return cfg

    def _documentation(self) -> PressioOptions:
        docs = super()._documentation()
        docs.set("sz:error_bound_mode_str",
                 "error bound mode: abs, rel (value-range relative), "
                 "abs_and_rel, abs_or_rel, psnr, pw_rel, norm")
        docs.set("pressio:abs", "cross-compressor absolute error bound")
        docs.set("pressio:rel", "cross-compressor value-range relative bound")
        return docs

    def version(self) -> str:
        return "2.1.10.pyrepro"

    # -- compression --------------------------------------------------------
    def _stage1(self, arr, dims):
        return native_sz.compress_stage1(arr, self._params)
