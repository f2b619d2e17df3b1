"""Distributional metrics: ``ks_test``, ``kl_divergence``, ``diff_pdf``.

* ``ks_test`` — two-sample Kolmogorov-Smirnov statistic/p-value between
  the original and decompressed samples (scipy implementation, per the
  glossary definition);
* ``kl_divergence`` — relative entropy D(P||Q) between histograms of the
  original and decompressed data;
* ``diff_pdf`` — an empirical probability density function of the
  pointwise differences (the "differences-probabilities pdf" module).
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from ..core.configurable import Field
from ..core.data import PressioData
from ..core.options import OptionType, PressioOptions
from ..core.registry import metric_plugin
from .base import ComparisonMetrics

__all__ = ["KSTestMetrics", "KLDivergenceMetrics", "DiffPdfMetrics"]


@metric_plugin("ks_test")
class KSTestMetrics(ComparisonMetrics):
    """Two-sample KS test between original and decompressed samples."""

    def __init__(self) -> None:
        super().__init__()
        self._stat: float | None = None
        self._pvalue: float | None = None

    def _evaluate(self, original: np.ndarray, decompressed: np.ndarray) -> None:
        if original.size < 2:
            self._stat = self._pvalue = None
            return
        result = stats.ks_2samp(original, decompressed)
        self._stat = float(result.statistic)
        self._pvalue = float(result.pvalue)

    def get_metrics_results(self) -> PressioOptions:
        results = PressioOptions()
        if self._stat is not None:
            results.set("ks_test:d", self._stat)
            results.set("ks_test:pvalue", self._pvalue)
        return results

    def reset(self) -> None:
        super().reset()
        self._stat = self._pvalue = None


@metric_plugin("kl_divergence")
class KLDivergenceMetrics(ComparisonMetrics):
    """Histogram KL divergence D(original || decompressed)."""

    fields = (Field("kl_divergence:bins", "_bins", OptionType.INT32, low=2),)

    def __init__(self) -> None:
        super().__init__()
        self._bins = 128
        self._kl: float | None = None

    def _evaluate(self, original: np.ndarray, decompressed: np.ndarray) -> None:
        lo = min(float(original.min()), float(decompressed.min()))
        hi = max(float(original.max()), float(decompressed.max()))
        if hi <= lo:
            self._kl = 0.0
            return
        p, _ = np.histogram(original, bins=self._bins, range=(lo, hi))
        q, _ = np.histogram(decompressed, bins=self._bins, range=(lo, hi))
        # Laplace smoothing keeps the divergence finite for empty bins
        p = (p + 1.0) / (p.sum() + self._bins)
        q = (q + 1.0) / (q.sum() + self._bins)
        self._kl = float(np.sum(p * np.log(p / q)))

    def get_metrics_results(self) -> PressioOptions:
        results = PressioOptions()
        if self._kl is not None:
            results.set("kl_divergence:kl", self._kl)
        return results

    def reset(self) -> None:
        super().reset()
        self._kl = None


@metric_plugin("diff_pdf")
class DiffPdfMetrics(ComparisonMetrics):
    """Empirical pdf of the pointwise differences."""

    fields = (Field("diff_pdf:bins", "_bins", OptionType.INT32, low=2),)

    def __init__(self) -> None:
        super().__init__()
        self._bins = 64
        self._pdf: np.ndarray | None = None
        self._edges: np.ndarray | None = None

    def _evaluate(self, original: np.ndarray, decompressed: np.ndarray) -> None:
        diff = decompressed - original
        counts, edges = np.histogram(diff, bins=self._bins, density=True)
        self._pdf = counts
        self._edges = edges

    def get_metrics_results(self) -> PressioOptions:
        results = PressioOptions()
        if self._pdf is not None:
            results.set("diff_pdf:pdf", PressioData.from_numpy(self._pdf))
            results.set("diff_pdf:edges", PressioData.from_numpy(self._edges))
        return results

    def reset(self) -> None:
        super().reset()
        self._pdf = self._edges = None
