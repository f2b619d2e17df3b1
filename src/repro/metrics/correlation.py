"""Correlation metrics: ``pearson`` and ``autocorr``.

* ``pearson`` — Pearson's r (and r^2) between the original and the
  decompressed values, the linear-fidelity score from the glossary;
* ``autocorr`` — autocorrelation of the *error* at lags 1..N, used to
  detect structured compression artifacts (white error is good; lag
  correlation indicates the compressor left spatial structure in the
  error).
"""

from __future__ import annotations

import numpy as np

from ..core.configurable import Field
from ..core.options import OptionType, PressioOptions
from ..core.registry import metric_plugin
from .base import ComparisonMetrics

__all__ = ["PearsonMetrics", "AutocorrMetrics"]


@metric_plugin("pearson")
class PearsonMetrics(ComparisonMetrics):
    """Pearson correlation between original and decompressed values."""

    def __init__(self) -> None:
        super().__init__()
        self._r: float | None = None

    def _evaluate(self, original: np.ndarray, decompressed: np.ndarray) -> None:
        if original.size < 2:
            self._r = None
            return
        so = float(original.std())
        sd = float(decompressed.std())
        if so == 0.0 or sd == 0.0:
            # degenerate: constant array(s); define r = 1 when identical
            self._r = 1.0 if np.allclose(original, decompressed) else 0.0
            return
        cov = float(np.mean((original - original.mean())
                            * (decompressed - decompressed.mean())))
        self._r = cov / (so * sd)

    def get_metrics_results(self) -> PressioOptions:
        results = PressioOptions()
        if self._r is not None:
            results.set("pearson:r", float(self._r))
            results.set("pearson:r2", float(self._r) ** 2)
        return results

    def reset(self) -> None:
        super().reset()
        self._r = None


@metric_plugin("autocorr")
class AutocorrMetrics(ComparisonMetrics):
    """Autocorrelation of the error signal at lags 1..autocorr:max_lag."""

    fields = (Field("autocorr:max_lag", "_max_lag", OptionType.INT32, low=1),)

    def __init__(self) -> None:
        super().__init__()
        self._max_lag = 16
        self._acf: np.ndarray | None = None

    def _evaluate(self, original: np.ndarray, decompressed: np.ndarray) -> None:
        err = decompressed - original
        n = err.size
        max_lag = min(self._max_lag, n - 1)
        if max_lag < 1:
            self._acf = None
            return
        err = err - err.mean()
        denom = float(np.dot(err, err))
        if denom == 0.0:
            self._acf = np.zeros(max_lag)
            return
        acf = np.empty(max_lag)
        for lag in range(1, max_lag + 1):
            acf[lag - 1] = float(np.dot(err[:-lag], err[lag:])) / denom
        self._acf = acf

    def get_metrics_results(self) -> PressioOptions:
        results = PressioOptions()
        if self._acf is not None:
            from ..core.data import PressioData

            results.set("autocorr:autocorr",
                        PressioData.from_numpy(self._acf))
            if self._acf.size:
                results.set("autocorr:lag1", float(self._acf[0]))
        return results

    def reset(self) -> None:
        super().reset()
        self._acf = None
