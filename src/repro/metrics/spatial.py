"""Pointwise/region metrics: ``spatial_error``, ``kth_error``,
``region_of_interest``, and ``mask``.

* ``spatial_error`` — percentage of elements whose absolute error
  exceeds a threshold (the glossary's "Spatial Error");
* ``kth_error`` — the k-th largest absolute error (the glossary's
  "k-th order error");
* ``region_of_interest`` — arithmetic mean of a rectangular sub-region
  of the decompressed data, compared against the original's;
* ``mask`` — removes specified points before forwarding to a child
  metric.
"""

from __future__ import annotations

import numpy as np

from ..core.configurable import Field
from ..core.data import PressioData
from ..core.metrics import PressioMetrics
from ..core.options import OptionType, PressioOptions
from ..core.registry import metric_plugin, metrics_registry
from .base import ComparisonMetrics

__all__ = ["SpatialErrorMetrics", "KthErrorMetrics",
           "RegionOfInterestMetrics", "MaskMetrics"]


@metric_plugin("spatial_error")
class SpatialErrorMetrics(ComparisonMetrics):
    """Percent of elements exceeding ``spatial_error:threshold``."""

    fields = (Field("spatial_error:threshold", "_threshold",
                    OptionType.DOUBLE, low=0),)

    def __init__(self) -> None:
        super().__init__()
        self._threshold = 1e-4
        self._percent: float | None = None

    def _evaluate(self, original: np.ndarray, decompressed: np.ndarray) -> None:
        if original.size == 0:
            self._percent = 0.0
            return
        exceed = np.abs(decompressed - original) > self._threshold
        self._percent = 100.0 * float(exceed.mean())

    def get_metrics_results(self) -> PressioOptions:
        results = PressioOptions()
        if self._percent is not None:
            results.set("spatial_error:percent", self._percent)
        return results

    def reset(self) -> None:
        super().reset()
        self._percent = None


@metric_plugin("kth_error")
class KthErrorMetrics(ComparisonMetrics):
    """The k-th largest absolute error (k = ``kth_error:k``, 1-based)."""

    fields = (Field("kth_error:k", "_k", OptionType.INT64, low=1),)

    def __init__(self) -> None:
        super().__init__()
        self._k = 1
        self._value: float | None = None

    def _evaluate(self, original: np.ndarray, decompressed: np.ndarray) -> None:
        abs_err = np.abs(decompressed - original)
        if abs_err.size == 0 or self._k > abs_err.size:
            self._value = None
            return
        # partition is O(n); full sort would be O(n log n)
        self._value = float(
            np.partition(abs_err, abs_err.size - self._k)[abs_err.size - self._k]
        )

    def get_metrics_results(self) -> PressioOptions:
        results = PressioOptions()
        if self._value is not None:
            results.set("kth_error:kth_error", self._value)
        return results

    def reset(self) -> None:
        super().reset()
        self._value = None


@metric_plugin("region_of_interest")
class RegionOfInterestMetrics(PressioMetrics):
    """Mean of a rectangular region, original vs decompressed.

    The region is given as flat ``start``/``stop`` string lists (one
    entry per dimension), showing off the STRING_LIST option type.
    """

    fields = (
        Field("region_of_interest:start", "_start", OptionType.STRING_LIST),
        Field("region_of_interest:stop", "_stop", OptionType.STRING_LIST),
    )

    def __init__(self) -> None:
        super().__init__()
        self._start: list[str] = []
        self._stop: list[str] = []
        self._orig: np.ndarray | None = None
        self._orig_mean: float | None = None
        self._dec_mean: float | None = None

    def _region(self, arr: np.ndarray) -> np.ndarray:
        if not self._start or len(self._start) != arr.ndim:
            return arr
        slices = tuple(
            slice(int(a), int(b)) for a, b in zip(self._start, self._stop)
        )
        return arr[slices]

    def begin_compress(self, input: PressioData) -> None:
        arr = np.asarray(input.to_numpy(), dtype=np.float64)
        region = self._region(arr)
        self._orig_mean = float(region.mean()) if region.size else None

    def end_decompress(self, input: PressioData, output: PressioData) -> None:
        arr = np.asarray(output.to_numpy(), dtype=np.float64)
        region = self._region(arr)
        self._dec_mean = float(region.mean()) if region.size else None

    def get_metrics_results(self) -> PressioOptions:
        results = PressioOptions()
        if self._orig_mean is not None:
            results.set("region_of_interest:uncompressed_mean", self._orig_mean)
        if self._dec_mean is not None:
            results.set("region_of_interest:decompressed_mean", self._dec_mean)
        if self._orig_mean is not None and self._dec_mean is not None:
            results.set("region_of_interest:mean_error",
                        abs(self._orig_mean - self._dec_mean))
        return results

    def reset(self) -> None:
        self._orig_mean = self._dec_mean = None


@metric_plugin("mask")
class MaskMetrics(ComparisonMetrics):
    """Excludes masked points, then forwards to a child metric.

    ``mask:mask`` is a DATA option (a 0/1 buffer shaped like the input —
    1 means *exclude*), demonstrating the DATA option type from Section
    IV-C; ``mask:metric`` names the wrapped plugin.
    """

    fields = (Field("mask:metric", "_child_id", OptionType.STRING),
              Field("mask:mask", "_mask", OptionType.DATA))

    def __init__(self) -> None:
        super().__init__()
        self._mask: PressioData | None = None
        self._child_id = "error_stat"
        self._child: PressioMetrics = metrics_registry.create("error_stat")

    def _set_options(self, options: PressioOptions) -> None:
        # naming another child metric creates it
        child_id = options.get("mask:metric")
        if child_id is not None and child_id != self._child_id:
            self._child = metrics_registry.create(str(child_id))
        super()._set_options(options)

    def _evaluate(self, original: np.ndarray, decompressed: np.ndarray) -> None:
        if self._mask is not None:
            keep = np.asarray(self._mask.to_numpy()).reshape(-1) == 0
            original = original[keep]
            decompressed = decompressed[keep]
        dims = (original.size,)
        self._child.begin_compress(
            PressioData.from_numpy(original.reshape(dims), copy=False))
        self._child.end_decompress(
            PressioData.from_bytes(b""),
            PressioData.from_numpy(decompressed.reshape(dims), copy=False))

    def get_metrics_results(self) -> PressioOptions:
        inner = self._child.get_metrics_results()
        results = PressioOptions()
        for key, opt in inner.items():
            results.set(f"mask:{key}", opt)
        return results

    def reset(self) -> None:
        super().reset()
        self._child.reset()
