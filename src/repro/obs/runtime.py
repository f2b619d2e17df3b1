"""The process-wide active metrics registry and zero-cost guards.

Mirrors :mod:`repro.trace.runtime`: the compression hot path reads one
module global (``ACTIVE``) and compares it to ``None``.  When metrics
collection is disabled that comparison is the *entire* cost, so the
paper's Fig. 3 overhead claim — pinned by
``tests/trace/test_overhead.py`` — survives the registry being wired
into :meth:`repro.core.compressor.PressioCompressor.compress`.

Helpers degrade to no-ops when disabled, so instrumentation sites
(including the *cold* error paths) never need their own guards:

* :func:`record_operation` — op counter + duration histogram + byte
  counters for one compress/decompress, labelled by plugin/dtype;
* :func:`record_error` — the error-taxonomy counter family
  (``pressio_errors_total{operation,plugin,etype}``) plus a structured
  log record carrying the current span id;
* :func:`count` — a generic labelled counter bump for plugin-specific
  events (the ``external`` compressor's worker failures use this).
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Any, Iterator

from .. import _hot
from . import flight as _flight
from .registry import MetricsRegistry

__all__ = [
    "ACTIVE",
    "active_registry",
    "enable_metrics",
    "disable_metrics",
    "metrics_enabled",
    "record_operation",
    "record_error",
    "count",
    "observe",
    "set_gauge",
]

#: The active registry, or None when collection is disabled.
ACTIVE: MetricsRegistry | None = None
_SELF = sys.modules[__name__]


def active_registry() -> MetricsRegistry | None:
    """The active :class:`MetricsRegistry`, or None when disabled."""
    return ACTIVE


def enable_metrics(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Install ``registry`` (or a fresh one) as the active registry."""
    if registry is None:
        registry = MetricsRegistry()
    _hot.swap(_SELF, registry)
    return registry


def disable_metrics() -> MetricsRegistry | None:
    """Deactivate collection; returns the registry that was active."""
    return _hot.swap(_SELF, None)


@contextmanager
def metrics_enabled(registry: MetricsRegistry | None = None,
                    ) -> Iterator[MetricsRegistry]:
    """Scoped collection: activate for the block, restore prior state."""
    installed = registry if registry is not None else MetricsRegistry()
    previous = _hot.swap(_SELF, installed)
    try:
        yield installed
    finally:
        _hot.swap(_SELF, previous)


# ---------------------------------------------------------------------------
# instrumentation helpers (no-ops when disabled)
# ---------------------------------------------------------------------------

def record_operation(operation: str, plugin: str, dtype: str,
                     seconds: float, input_bytes: int,
                     output_bytes: int) -> None:
    """Record one completed compress/decompress on the active registry.

    The operation count is the series the acceptance check joins against
    the trace aggregate report: one increment per public
    ``compress``/``decompress`` call, labelled exactly like the span the
    tracer would open for the same call.
    """
    reg = ACTIVE
    if reg is None:
        return
    reg.counter(
        "pressio_operations_total",
        "compress/decompress operations completed",
        ("operation", "plugin", "dtype"),
    ).labels(operation=operation, plugin=plugin, dtype=dtype).inc()
    reg.histogram(
        "pressio_operation_duration_seconds",
        "wall time of compress/decompress operations",
        ("operation", "plugin"),
    ).labels(operation=operation, plugin=plugin).observe(seconds)
    reg.counter(
        "pressio_processed_bytes_total",
        "bytes entering (in) and leaving (out) operations",
        ("operation", "plugin", "direction"),
    ).labels(operation=operation, plugin=plugin, direction="in").inc(
        input_bytes)
    reg.counter(
        "pressio_processed_bytes_total",
        "bytes entering (in) and leaving (out) operations",
        ("operation", "plugin", "direction"),
    ).labels(operation=operation, plugin=plugin, direction="out").inc(
        output_bytes)
    if operation == "compress" and output_bytes:
        reg.gauge(
            "pressio_last_compression_ratio",
            "uncompressed/compressed byte ratio of the last compress",
            ("plugin",),
        ).labels(plugin=plugin).set(input_bytes / output_bytes)


def record_error(operation: str, plugin: str, exc: BaseException,
                 **extra: Any) -> None:
    """Count an error by taxonomy and emit a structured log record.

    Called from the ``except`` arms of the core compressor and the
    out-of-process path; always emits the log record (the logger is a
    no-op until :func:`repro.obs.logging.configure` installs a handler)
    and bumps ``pressio_errors_total`` when a registry is active.

    When a flight recorder is active the error also lands in its ring,
    and a :class:`~repro.core.status.CorruptStreamError` — wrong bytes
    came back — triggers an immediate bundle dump (matched by class
    name through the MRO so this module never imports
    :mod:`repro.core.status` and cycles).
    """
    etype = type(exc).__name__
    rec = _flight.ACTIVE
    if rec is not None:
        rec.record_error(operation, plugin, exc, extra)
        if any(c.__name__ == "CorruptStreamError"
               for c in type(exc).__mro__):
            rec.dump("corrupt-stream", exc=exc)
    reg = ACTIVE
    if reg is not None:
        reg.counter(
            "pressio_errors_total",
            "operation failures by exception taxonomy",
            ("operation", "plugin", "etype"),
        ).labels(operation=operation, plugin=plugin, etype=etype).inc()
    from .logging import get_logger

    get_logger("errors").error(
        "%s failed in plugin %s: %s", operation, plugin, exc,
        extra={"operation": operation, "plugin": plugin,
               "etype": etype, **extra},
    )


def count(name: str, help: str = "", amount: float = 1.0,
          **labels: Any) -> None:
    """Bump a labelled counter on the active registry (no-op when off)."""
    reg = ACTIVE
    if reg is None:
        return
    family = reg.counter(name, help, tuple(labels))
    (family.labels(**labels) if labels else family._sole()).inc(amount)


def observe(name: str, value: float, help: str = "",
            buckets: tuple[float, ...] | None = None,
            **labels: Any) -> None:
    """Record a histogram observation on the active registry."""
    reg = ACTIVE
    if reg is None:
        return
    kwargs = {"buckets": buckets} if buckets is not None else {}
    family = reg.histogram(name, help, tuple(labels), **kwargs)
    (family.labels(**labels) if labels else family._sole()).observe(value)


def set_gauge(name: str, value: float, help: str = "",
              **labels: Any) -> None:
    """Set a labelled gauge on the active registry (no-op when off)."""
    reg = ACTIVE
    if reg is None:
        return
    family = reg.gauge(name, help, tuple(labels))
    (family.labels(**labels) if labels else family._sole()).set(value)
