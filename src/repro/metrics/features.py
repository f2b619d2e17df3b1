"""The ``ftk`` metrics plugin: critical-point feature preservation.

The paper's glossary lists an FTK-backed module that "tracks features
such as maxima, minima, and saddle points in data".  This plugin
implements the core of that check for compression assessment: it
locates the local extrema of the original field and of the decompressed
field and reports how well the feature sets survive —

* ``ftk:n_maxima`` / ``ftk:n_minima`` before and after,
* ``ftk:preserved_fraction`` — the fraction of original extrema that
  still exist within ``ftk:match_radius`` grid cells in the output,
* ``ftk:spurious`` — extrema present after compression with no original
  counterpart (compression artifacts a feature-tracking analysis would
  mistake for physics).

Extrema are strict local extrema over the 3^d neighborhood, computed
with vectorized shifted comparisons (no Python per-cell loops).
"""

from __future__ import annotations

import itertools

import numpy as np

from ..core.configurable import Field
from ..core.data import PressioData
from ..core.options import OptionType, PressioOptions
from ..core.registry import metric_plugin
from .base import ComparisonMetrics

__all__ = ["FtkMetrics", "local_extrema"]


def local_extrema(field: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(maxima mask, minima mask) of strict local extrema.

    Boundary cells are excluded (their neighborhoods are incomplete),
    matching what feature trackers do by default.
    """
    arr = np.asarray(field, dtype=np.float64)
    if arr.ndim == 0 or any(s < 3 for s in arr.shape):
        empty = np.zeros(arr.shape, dtype=bool)
        return empty, empty
    interior = tuple(slice(1, -1) for _ in range(arr.ndim))
    center = arr[interior]
    is_max = np.ones(center.shape, dtype=bool)
    is_min = np.ones(center.shape, dtype=bool)
    for offsets in itertools.product((-1, 0, 1), repeat=arr.ndim):
        if all(o == 0 for o in offsets):
            continue
        neighbor = arr[tuple(slice(1 + o, arr.shape[d] - 1 + o)
                             for d, o in enumerate(offsets))]
        is_max &= center > neighbor
        is_min &= center < neighbor
    maxima = np.zeros(arr.shape, dtype=bool)
    minima = np.zeros(arr.shape, dtype=bool)
    maxima[interior] = is_max
    minima[interior] = is_min
    return maxima, minima


def _match_fraction(original: np.ndarray, recovered: np.ndarray,
                    radius: int) -> float:
    """Fraction of original feature cells with a recovered feature
    within ``radius`` cells (Chebyshev distance)."""
    n_original = int(original.sum())
    if n_original == 0:
        return 1.0
    if radius > 0:
        # dilate the recovered mask by the match radius
        dilated = recovered.copy()
        for axis in range(recovered.ndim):
            for shift in range(1, radius + 1):
                dilated |= np.roll(recovered, shift, axis=axis)
                dilated |= np.roll(recovered, -shift, axis=axis)
        recovered = dilated
    return float((original & recovered).sum()) / n_original


@metric_plugin("ftk")
class FtkMetrics(ComparisonMetrics):
    """Critical-point preservation between original and decompressed."""

    fields = (Field("ftk:match_radius", "_match_radius", OptionType.INT32,
                    low=0),)

    def __init__(self) -> None:
        super().__init__()
        self._match_radius = 1
        self._dims: tuple[int, ...] | None = None
        self._results = PressioOptions()

    def begin_compress(self, input: PressioData) -> None:
        super().begin_compress(input)
        self._dims = input.dims

    def _evaluate(self, original: np.ndarray, decompressed: np.ndarray) -> None:
        dims = self._dims if self._dims else (original.size,)
        orig = original.reshape(dims)
        dec = decompressed.reshape(dims)
        omax, omin = local_extrema(orig)
        dmax, dmin = local_extrema(dec)
        preserved_max = _match_fraction(omax, dmax, self._match_radius)
        preserved_min = _match_fraction(omin, dmin, self._match_radius)
        spurious = (int(dmax.sum()) + int(dmin.sum())
                    - int((dmax & omax).sum()) - int((dmin & omin).sum()))
        r = PressioOptions()
        r.set("ftk:n_maxima", np.int64(int(omax.sum())))
        r.set("ftk:n_minima", np.int64(int(omin.sum())))
        r.set("ftk:n_maxima_decompressed", np.int64(int(dmax.sum())))
        r.set("ftk:n_minima_decompressed", np.int64(int(dmin.sum())))
        r.set("ftk:preserved_maxima_fraction", float(preserved_max))
        r.set("ftk:preserved_minima_fraction", float(preserved_min))
        r.set("ftk:preserved_fraction",
              float((preserved_max + preserved_min) / 2.0))
        r.set("ftk:spurious", np.int64(max(spurious, 0)))
        self._results = r

    def get_metrics_results(self) -> PressioOptions:
        return self._results.copy()

    def reset(self) -> None:
        super().reset()
        self._results = PressioOptions()
        self._dims = None
