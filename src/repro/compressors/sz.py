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

import dataclasses
import threading

import numpy as np

from ..core.configurable import Stability
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


#: options of SZ's API that ``sz_params`` stores but our native does not
#: consult: option key -> (``sz_params`` field, option type)
_STORED_ONLY = {
    "sz:max_quant_intervals": ("max_quant_intervals", OptionType.INT64),
    "sz:quantization_intervals": ("quantization_intervals",
                                  OptionType.INT64),
    "sz:sample_distance": ("sampleDistance", OptionType.INT64),
    "sz:pred_threshold": ("predThreshold", OptionType.DOUBLE),
    "sz:segment_size": ("segment_size", OptionType.INT64),
    "sz:snapshot_cmpr_step": ("snapshotCmprStep", OptionType.INT64),
    "sz:with_regression": ("withRegression", OptionType.INT64),
    "sz:protect_value_range": ("protectValueRange", OptionType.INT64),
    "sz:accelerate_pw_rel_compression": ("accelerate_pw_rel_compression",
                                         OptionType.INT64),
    "sz:plus_bits": ("plus_bits", OptionType.INT64),
    "sz:random_access": ("randomAccess", OptionType.INT64),
    "sz:data_endian_type": ("dataEndianType", OptionType.INT64),
}
#: how each option type's value is stored and reported
_CASTS = {OptionType.INT64: np.int64, OptionType.DOUBLE: float}


@compressor_plugin("sz")
class SZCompressor(StagedCompressor):
    """Error-bounded lossy compression via the SZ-family pipeline."""

    thread_safety = "single"
    native = native_sz

    def __init__(self) -> None:
        super().__init__()
        self._params = sz_params()
        _acquire_sz()

    def _release_native(self) -> None:
        _release_sz()

    # -- options ----------------------------------------------------------
    def _options(self) -> PressioOptions:
        opts = PressioOptions()
        p = self._params
        opts.set("sz:error_bound_mode", np.int32(p.errorBoundMode))
        opts.set("sz:error_bound_mode_str", _MODE_NAMES[p.errorBoundMode])
        opts.set("sz:abs_err_bound", float(p.absErrBound))
        opts.set("sz:rel_err_bound", float(p.relBoundRatio))
        opts.set("sz:pw_rel_err_bound", float(p.pw_relBoundRatio))
        opts.set("sz:psnr_err_bound", float(p.psnr))
        opts.set("sz:norm_err_bound", float(p.normErrBound))
        opts.set("sz:sz_mode", np.int32(p.szMode))
        opts.set("sz:lossless_compressor", p.losslessCompressor)
        opts.set("sz:entropy_coder", p.entropyCoder)
        opts.set("sz:prediction_mode", p.predictionMode)
        for key, (field, otype) in _STORED_ONLY.items():
            opts.set(key, _CASTS[otype](getattr(p, field)))
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
        p = self._params
        mode = self._take(options, "sz:error_bound_mode", OptionType.INT32,
                          p.errorBoundMode)
        mode_str = options.get("sz:error_bound_mode_str")
        if mode_str is not None:
            try:
                mode = ERROR_BOUND_MODES[str(mode_str)]
            except KeyError:
                raise InvalidOptionError(
                    f"unknown error bound mode {mode_str!r}; known: "
                    f"{sorted(ERROR_BOUND_MODES)}"
                ) from None
        updated = dataclasses.replace(
            p,
            errorBoundMode=int(mode),
            absErrBound=self._take(options, "sz:abs_err_bound",
                                   OptionType.DOUBLE, p.absErrBound),
            relBoundRatio=self._take(options, "sz:rel_err_bound",
                                     OptionType.DOUBLE, p.relBoundRatio),
            pw_relBoundRatio=self._take(options, "sz:pw_rel_err_bound",
                                        OptionType.DOUBLE, p.pw_relBoundRatio),
            psnr=self._take(options, "sz:psnr_err_bound", OptionType.DOUBLE,
                            p.psnr),
            normErrBound=self._take(options, "sz:norm_err_bound",
                                    OptionType.DOUBLE, p.normErrBound),
            szMode=int(self._take(options, "sz:sz_mode", OptionType.INT32,
                                  p.szMode)),
            losslessCompressor=str(self._take(
                options, "sz:lossless_compressor", OptionType.STRING,
                p.losslessCompressor)),
            entropyCoder=str(self._take(options, "sz:entropy_coder",
                                        OptionType.STRING, p.entropyCoder)),
            predictionMode=str(self._take(options, "sz:prediction_mode",
                                          OptionType.STRING, p.predictionMode)),
            **{field: _CASTS[otype](self._take(options, key, otype,
                                               getattr(p, field)))
               for key, (field, otype) in _STORED_ONLY.items()},
        )
        # cross-compressor aliases override the specific fields
        if "pressio:abs" in options and options.get("pressio:abs") is not None:
            updated.errorBoundMode = native_sz.ABS
            updated.absErrBound = options.get_as("pressio:abs", OptionType.DOUBLE)
        if "pressio:rel" in options and options.get("pressio:rel") is not None:
            updated.errorBoundMode = native_sz.REL
            updated.relBoundRatio = options.get_as("pressio:rel", OptionType.DOUBLE)
        try:
            updated.validate()
        except ValueError as e:
            raise InvalidOptionError(str(e)) from None
        self._params = updated

    def _configuration(self) -> PressioOptions:
        cfg = PressioOptions()
        cfg.set("pressio:stability", Stability.STABLE)
        cfg.set("pressio:lossy", True)
        cfg.set("sz:shared_instance", True)
        cfg.set("sz:error_bound_modes", sorted(ERROR_BOUND_MODES))
        return cfg

    def _documentation(self) -> PressioOptions:
        docs = PressioOptions()
        docs.set("pressio:description",
                 "SZ-family prediction-based error-bounded lossy compressor")
        docs.set("sz:error_bound_mode_str",
                 "error bound mode: abs, rel (value-range relative), "
                 "abs_and_rel, abs_or_rel, psnr, pw_rel, norm")
        docs.set("sz:abs_err_bound", "absolute error bound (mode abs)")
        docs.set("sz:rel_err_bound", "value-range relative bound (mode rel)")
        docs.set("sz:pw_rel_err_bound", "pointwise relative bound (mode pw_rel)")
        docs.set("sz:psnr_err_bound", "target PSNR in dB (mode psnr)")
        docs.set("sz:sz_mode",
                 "0=SZ_BEST_SPEED 1=SZ_DEFAULT_COMPRESSION 2=SZ_BEST_COMPRESSION")
        docs.set("sz:lossless_compressor",
                 "lossless backend: zlib, bz2, lzma, none")
        docs.set("sz:entropy_coder", "residual coder: fast or huffman")
        docs.set("sz:prediction_mode",
                 "lorenzo, none, regression, or adaptive (SZ 2.x per-block\n                 regression selection)")
        for key in _STORED_ONLY:
            docs.set(key, "kept for SZ API parity: stored and reported, "
                          "not consulted by this native")
        docs.set("pressio:abs", "cross-compressor absolute error bound")
        docs.set("pressio:rel", "cross-compressor value-range relative bound")
        return docs

    def version(self) -> str:
        return "2.1.10.pyrepro"

    # -- compression --------------------------------------------------------
    def _stage1(self, arr, dims):
        return native_sz.compress_stage1(arr, self._params)
