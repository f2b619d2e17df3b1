"""The ``opt`` meta-compressor: automatic configuration search.

Reproduces LibPressio-Opt (previously FRaZ, the paper's reference [4]
and [25]): given a target — a fixed compression ratio, or "best ratio
subject to a quality floor" — search the error-bound space of the inner
compressor and compress with the winning configuration.

Search strategy: bisection on ``log10(bound)`` (compression ratio and
quality are monotone in the bound for the compressors here, which is
the same property FRaZ exploits), with a bounded iteration budget.

Options:

* ``opt:objective`` — ``target_ratio`` or ``max_ratio_with_quality``;
* ``opt:target_ratio`` / ``opt:ratio_tolerance_pct`` — fixed-ratio goal;
* ``opt:quality_metric`` / ``opt:quality_min`` — quality floor, e.g.
  ``error_stat:psnr`` >= 60;
* ``opt:bound_option`` — which inner option to search (``pressio:abs``);
* ``opt:bound_low`` / ``opt:bound_high`` — search interval;
* ``opt:max_iterations`` — evaluation budget.

After a compress, ``opt:chosen_bound``, ``opt:achieved_ratio`` and
``opt:iterations`` are readable through ``get_options``.
"""

from __future__ import annotations

import numpy as np

from ..core.configurable import Field
from ..core.data import PressioData
from ..core.options import OptionType, PressioOptions
from ..core.registry import compressor_plugin, metrics_registry
from ..core.status import InvalidOptionError, PressioError
from ..trace import runtime as _trace
from .base import MetaCompressor

__all__ = ["OptCompressor"]


@compressor_plugin("opt")
class OptCompressor(MetaCompressor):
    """Error-bound search wrapper (the FRaZ / LibPressio-Opt pattern)."""

    default_inner = "sz"
    fields = (
        Field("objective", "_objective", OptionType.STRING,
              choices=("target_ratio", "max_ratio_with_quality")),
        Field("target_ratio", "_target_ratio", OptionType.DOUBLE),
        Field("ratio_tolerance_pct", "_ratio_tol_pct", OptionType.DOUBLE),
        Field("quality_metric", "_quality_metric", OptionType.STRING),
        Field("quality_min", "_quality_min", OptionType.DOUBLE),
        Field("bound_option", "_bound_option", OptionType.STRING),
        Field("bound_low", "_bound_low", OptionType.DOUBLE),
        Field("bound_high", "_bound_high", OptionType.DOUBLE),
        Field("max_iterations", "_max_iterations", OptionType.INT64, low=1),
    )

    def __init__(self) -> None:
        super().__init__()
        self._objective = "target_ratio"
        self._target_ratio = 10.0
        self._ratio_tol_pct = 5.0
        self._quality_metric = "error_stat:psnr"
        self._quality_min = 60.0
        self._bound_option = "pressio:abs"
        self._bound_low = 1e-9
        self._bound_high = 1.0
        self._max_iterations = 24
        # results of the last search
        self._chosen_bound: float | None = None
        self._achieved_ratio: float | None = None
        self._iterations = 0

    # -- options ----------------------------------------------------------
    def _options(self) -> PressioOptions:
        opts = super()._options()
        if self._chosen_bound is not None:
            # the last search's results, read-only
            opts.set(self._qualify("chosen_bound"), float(self._chosen_bound))
            opts.set(self._qualify("achieved_ratio"),
                     float(self._achieved_ratio or 0.0))
            opts.set(self._qualify("iterations"), np.int64(self._iterations))
        return opts

    def _set_options(self, options: PressioOptions) -> None:
        # checked before super() sets the inner plugin, which a
        # rejection here must leave as it was
        low = self._take(options, self._qualify("bound_low"),
                         OptionType.DOUBLE, self._bound_low)
        high = self._take(options, self._qualify("bound_high"),
                          OptionType.DOUBLE, self._bound_high)
        if not 0 < low < high:
            raise InvalidOptionError(
                f"need 0 < {self._qualify('bound_low')} < "
                f"{self._qualify('bound_high')}")
        super()._set_options(options)

    # -- evaluation ----------------------------------------------------------
    def _evaluate(self, input: PressioData, bound: float
                  ) -> tuple[PressioData, float, float | None]:
        """Compress with ``bound``; return (stream, ratio, quality)."""
        with _trace.stage("opt:evaluate", bound=bound,
                          iteration=self._iterations) as sp:
            rc = self._inner.set_options({self._bound_option: bound})
            if rc != 0:
                raise InvalidOptionError(
                    f"inner rejected {self._bound_option}={bound}: "
                    f"{self._inner.error_msg()}"
                )
            compressed = self._inner.compress(input)
            ratio = input.size_in_bytes / max(compressed.size_in_bytes, 1)
            quality = None
            if self._objective == "max_ratio_with_quality":
                probe = metrics_registry.create(
                    self._quality_metric.split(":", 1)[0])
                probe.begin_compress(input)
                template = PressioData.empty(input.dtype, input.dims)
                decompressed = self._inner.decompress(compressed, template)
                probe.end_decompress(compressed, decompressed)
                value = probe.get_metrics_results().get(self._quality_metric)
                quality = float(value) if value is not None else None
            if sp is not None:
                sp.attrs["ratio"] = ratio
                if quality is not None:
                    sp.attrs["quality"] = quality
            _trace.observe("opt:evaluated_ratio", ratio)
        self._iterations += 1
        return compressed, ratio, quality

    def _search(self, input: PressioData) -> PressioData:
        """Bisection on log10(bound) toward the configured objective."""
        lo = np.log10(self._bound_low)
        hi = np.log10(self._bound_high)
        self._iterations = 0
        best_stream: PressioData | None = None
        best_bound: float | None = None
        best_ratio: float | None = None

        if self._objective == "target_ratio":
            tol = self._target_ratio * self._ratio_tol_pct / 100.0
            for _ in range(self._max_iterations):
                mid = 10.0 ** ((lo + hi) / 2.0)
                stream, ratio, _ = self._evaluate(input, mid)
                if best_ratio is None or (abs(ratio - self._target_ratio)
                                          < abs(best_ratio - self._target_ratio)):
                    best_stream, best_bound, best_ratio = stream, mid, ratio
                if abs(ratio - self._target_ratio) <= tol:
                    break
                if ratio < self._target_ratio:
                    lo = np.log10(mid)  # need a looser bound
                else:
                    hi = np.log10(mid)
        else:  # max_ratio_with_quality: largest bound whose quality passes
            for _ in range(self._max_iterations):
                mid = 10.0 ** ((lo + hi) / 2.0)
                stream, ratio, quality = self._evaluate(input, mid)
                if quality is not None and quality >= self._quality_min:
                    if best_ratio is None or ratio > best_ratio:
                        best_stream, best_bound, best_ratio = stream, mid, ratio
                    lo = np.log10(mid)  # try looser
                else:
                    hi = np.log10(mid)  # too lossy
        if best_stream is None:
            raise PressioError(
                f"opt: no configuration in [{self._bound_low}, "
                f"{self._bound_high}] satisfied the objective"
            )
        self._chosen_bound = best_bound
        self._achieved_ratio = best_ratio
        _trace.annotate(chosen_bound=best_bound, achieved_ratio=best_ratio,
                        iterations=self._iterations)
        # leave the inner compressor configured with the winner
        self._inner.set_options({self._bound_option: best_bound})
        return best_stream

    # -- compressor interface ---------------------------------------------
    def _compress(self, input: PressioData) -> PressioData:
        return self._search(input)

    def _decompress(self, input: PressioData, output: PressioData) -> PressioData:
        return self._inner.decompress(input, output)
