"""Linear quantization helpers shared by the lossy natives.

``quantize_uniform`` maps reals onto integer bins of width ``2*eb`` so
that dequantization reconstructs within ±eb — the textbook error-bounded
quantizer every abs-bound lossy compressor in the paper builds on.

The hot path is written as a fixed number of whole-array passes with no
data-dependent branches: scale, one fused validation ``min``/``max``
(NaN propagates through both, so non-finite input and overflow share a
single check — the error kind is only disambiguated on the cold raise
path), round in place, cast.  Callers on the native hot paths
pass ``out=``/``scratch=`` buffers from :mod:`repro.native.pool` to
keep the per-operation allocation count at zero.

Codes are int64 by default.  A caller that sums codes downstream (the
Lorenzo predictor sums ``2**ndim`` of them) passes that ``fan_in`` and
gets int32 codes whenever the validation pass's peak proves every such
sum fits int32 — half the bytes to write and to predict on.
"""

from __future__ import annotations

import numpy as np

__all__ = ["quantize_uniform", "dequantize_uniform", "safe_quantizer_step",
           "int32_fits"]

# |code| beyond this risks int64 overflow in the Lorenzo stage, which sums
# up to 2**ndim codes; stay far below 2**63.
_MAX_CODE = 2**56
_INT32_LIMIT = 2**31


def int32_fits(peak: float, fan_in: int) -> bool:
    """Whether any sum of ``fan_in`` codes of ``|value/2eb| <= peak``
    fits int32.

    A code is at most ``peak + 1/2`` in magnitude, so
    ``(peak + 1) * fan_in < 2**31`` suffices.  A NaN peak fails the
    comparison.
    """
    return fan_in > 0 and (peak + 1.0) * fan_in < _INT32_LIMIT


def quantize_uniform(values: np.ndarray, error_bound: float,
                     out: np.ndarray | None = None,
                     scratch: np.ndarray | None = None,
                     fan_in: int = 0,
                     peak: float | None = None) -> np.ndarray:
    """Quantize to integer codes with bin width ``2*error_bound``.

    Guarantees ``|value - dequantize(code)| <= eb*(1+u) + u*|value|``
    elementwise for finite inputs, where ``u`` is the double-precision
    unit roundoff (2^-53) — i.e. the mathematical bound ``eb`` up to one
    rounding of the scaled value.  Raises when the bound is so tight
    relative to the value magnitudes that codes would overflow, or when
    the input holds non-finite values.

    ``out`` (int64, matching shape) receives the codes without a fresh
    allocation; ``scratch`` (float64, matching shape) is used for the
    scaled intermediate.  Both default to fresh arrays.

    The codes are int64 unless ``fan_in`` is positive and any sum of
    ``fan_in`` codes provably fits int32 (:func:`int32_fits` of the
    peak ``max |value/2eb|``).  Then they are int32, written into the
    leading half of a C-contiguous ``out``.  Use the returned array,
    not ``out``.

    On return ``scratch`` holds the codes as float64 (the rounded
    scaled values), so a caller can dequantize without reading the
    codes back.  A caller that has proved ``max |value/2eb| <= peak``
    for finite values (from the data's extremes, say) passes ``peak``
    and skips the validation pass; a peak that is NaN or too large
    raises as a measured one would.
    """
    if error_bound <= 0:
        raise ValueError(f"error_bound must be positive, got {error_bound}")
    arr = np.asarray(values)
    if scratch is not None and arr.size:
        # dtype= pins the computation to float64 even for float32 input,
        # matching the allocation path's astype-then-divide exactly
        scaled = np.divide(arr, 2.0 * error_bound, out=scratch,
                           dtype=np.float64)
    else:
        scaled = np.asarray(arr, dtype=np.float64) / (2.0 * error_bound)
    narrow = False
    if arr.size:
        # max |scaled| from two reductions, without an abs temporary;
        # np.maximum keeps a NaN from either, and NaN fails every
        # comparison, so this single check catches both non-finite
        # input (NaN peak, or inf >= bound) and overflow.
        if peak is None:
            peak = float(np.maximum(-scaled.min(), scaled.max()))
        if not peak < _MAX_CODE:
            if not np.all(np.isfinite(arr)):
                raise ValueError("cannot quantize non-finite values")
            raise ValueError(
                "error bound too small relative to data magnitude: "
                f"max |value/2eb| = {peak:.3g} >= {_MAX_CODE:g}"
            )
        narrow = int32_fits(peak, fan_in)
    np.rint(scaled, out=scaled)
    if narrow:
        if out is None:
            return scaled.astype(np.int32)
        codes = out.reshape(-1).view(np.int32)[:arr.size].reshape(arr.shape)
        np.copyto(codes, scaled, casting="unsafe")
        return codes
    if out is not None:
        np.copyto(out, scaled, casting="unsafe")
        return out
    return scaled.astype(np.int64)


def dequantize_uniform(codes: np.ndarray, error_bound: float,
                       dtype: np.dtype = np.dtype(np.float64),
                       out: np.ndarray | None = None) -> np.ndarray:
    """Reconstruct bin centers from integer codes.

    The product is computed in float64 and then cast to ``dtype``
    (no copy when ``dtype`` is float64).  ``out`` (of ``dtype``,
    matching shape) receives the reconstruction without allocating.
    """
    if error_bound <= 0:
        raise ValueError(f"error_bound must be positive, got {error_bound}")
    with np.errstate(over="ignore", invalid="ignore"):
        # absurd step values only arise from corrupted streams; the
        # resulting inf/nan buffers fail later validation rather than
        # spraying warnings here
        if out is not None:
            np.multiply(np.asarray(codes), 2.0 * error_bound,
                        out=out, casting="unsafe")
            return out
        scaled = np.multiply(codes, 2.0 * error_bound, dtype=np.float64)
        return scaled.astype(dtype, copy=False)


def safe_quantizer_step(values: np.ndarray, requested_eb: float) -> float:
    """Largest usable error bound not exceeding ``requested_eb``.

    Currently the identity with validation; kept as the single place a
    platform-specific floor could be applied.
    """
    if requested_eb <= 0:
        raise ValueError("error bound must be positive")
    return float(requested_eb)
