"""The ``trace`` metrics plugin: span aggregates as metrics results.

Attaching this plugin to any compressor turns on tracing for that
compressor's operations — no code changes at the call site, the same
zero-intrusion property the other metrics plugins have — and exposes
the per-plugin aggregates through the standard typed
``get_metrics_results()`` interface:

* ``trace:span_count``, ``trace:total_ms`` — whole-trace totals;
* ``trace:<plugin>:calls`` / ``:total_ms`` / ``:self_ms`` /
  ``:bytes_per_s`` — one group per plugin or stage observed.

Options: ``trace:jsonl_path`` and ``trace:chrome_path`` export the
accumulated trace when results are read; ``trace:clear_on_reset``
controls whether ``reset()`` drops collected spans.

If tracing is already active (``repro.trace.tracing()`` around the
call), the plugin leaves the ambient context in place and reports from
it; otherwise it activates its own context for the duration of each
operation, so the plugin composes with, rather than shadows, scoped
tracing.
"""

from __future__ import annotations

import numpy as np

from ..core.configurable import Field
from ..core.metrics import PressioMetrics
from ..core.options import OptionType, PressioOptions
from ..core.registry import metric_plugin
from . import runtime
from .context import Span, TraceContext
from .export import aggregate, write_chrome_trace, write_jsonl

__all__ = ["TraceMetrics"]


@metric_plugin("trace")
class TraceMetrics(PressioMetrics):
    """Collects a span tree for every operation of the owning compressor."""

    fields = (
        Field("trace:jsonl_path", "_jsonl_path", OptionType.STRING),
        Field("trace:chrome_path", "_chrome_path", OptionType.STRING),
        Field("trace:clear_on_reset", "_clear_on_reset", OptionType.INT32),
    )

    def __init__(self) -> None:
        super().__init__()
        self._context = TraceContext()
        self._jsonl_path = ""
        self._chrome_path = ""
        self._clear_on_reset = True
        self._source: TraceContext = self._context
        self._owns_activation = False
        self._op_span: Span | None = None

    @property
    def context(self) -> TraceContext:
        """The context results are read from (ambient when one is active)."""
        return self._source

    # -- hook plumbing ----------------------------------------------------
    def _begin(self, kind: str, input) -> None:
        ambient = runtime.active_tracer()
        if ambient is not None:
            # scoped tracing is already collecting the op span opened by
            # the compressor itself; just report from that context
            self._source = ambient
            return
        self._source = self._context
        runtime.enable_tracing(self._context)
        self._owns_activation = True
        self._op_span = self._context.start_span(
            kind,
            input_bytes=input.size_in_bytes,
            dtype=input.dtype.name,
            dims=list(input.dims),
        )

    def _end(self, output) -> None:
        if not self._owns_activation:
            return
        if self._op_span is not None:
            if output is not None:
                self._op_span.set_attr("output_bytes", output.size_in_bytes)
            self._context.finish_span(self._op_span)
            self._op_span = None
        runtime.disable_tracing()
        self._owns_activation = False

    def begin_compress(self, input) -> None:
        self._begin("compress", input)

    def end_compress(self, input, output) -> None:
        self._end(output)

    def begin_decompress(self, input) -> None:
        self._begin("decompress", input)

    def end_decompress(self, input, output) -> None:
        self._end(output)

    # -- results -----------------------------------------------------------
    def get_metrics_results(self) -> PressioOptions:
        # close a span leaked by an operation that errored between hooks
        if self._owns_activation:
            self._end(None)
        ctx = self._source
        results = PressioOptions()
        spans = ctx.spans()
        results.set("trace:span_count", np.int64(len(spans)))
        roots = [s for s in spans if s.parent_id is None]
        results.set("trace:total_ms",
                    float(sum(s.duration_ms for s in roots)))
        for key, row in sorted(aggregate(ctx).items()):
            results.set(f"trace:{key}:calls", np.int64(row["calls"]))
            results.set(f"trace:{key}:total_ms", float(row["total_ms"]))
            results.set(f"trace:{key}:self_ms", float(row["self_ms"]))
            results.set(f"trace:{key}:bytes_per_s",
                        float(row["bytes_per_s"]))
        for name, value in sorted(ctx.counters().items()):
            results.set(f"trace:counter:{name}", float(value))
        if self._jsonl_path:
            write_jsonl(ctx, self._jsonl_path)
        if self._chrome_path:
            write_chrome_trace(ctx, self._chrome_path)
        return results

    def reset(self) -> None:
        if self._owns_activation:
            self._end(None)
        if self._clear_on_reset:
            self._context.clear()
        self._source = self._context
