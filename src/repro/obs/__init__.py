"""Externalized observability: metrics registry, Prometheus, JSON logs.

:mod:`repro.trace` (PR 1) measures *inside* the process; this package
lets the measurements escape it:

* :mod:`repro.obs.registry` — named counters/gauges/histograms with
  ``plugin`` / ``operation`` / ``dtype`` labels, one namespace bridging
  the trace aggregates and the ``time``/``size`` metrics plugins;
* :mod:`repro.obs.prometheus` — text exposition rendering;
* :mod:`repro.obs.server` — the package's one HTTP listener (a
  keep-alive loop dispatching through a route table, shared with
  ``pressio serve``) and the ``/metrics`` + ``/healthz`` endpoint;
* :mod:`repro.obs.logging` — structured JSON logs carrying the current
  span id, so log lines join JSONL trace exports;
* :mod:`repro.obs.bench` — the ``pressio bench`` regression harness
  emitting ``BENCH_<date>.json`` artifacts.

Quickstart::

    from repro import obs

    server = obs.start_server(port=9100)      # enables collection too
    obs.configure_logging()                   # JSON logs on stderr
    ...compress/decompress...                 # counted automatically
    # curl localhost:9100/metrics  |  curl localhost:9100/healthz
    server.stop()

Collection follows the tracing model: **zero-cost when disabled** (the
hot path reads one module global per subsystem and compares it to
``None``), scoped with :func:`metrics_enabled`, global with
:func:`enable_metrics`.
"""

from .bridge import ingest_trace
from .flight import (
    FlightRecorder,
    disable_flight,
    enable_flight,
    flight_recording,
)
from .history import append_history, detect_drift, load_history
from .logging import JsonLogFormatter, capture_logs
from .logging import configure as configure_logging
from .logging import get_logger
from .prometheus import render as render_prometheus
from .quality import config_label, dataset_fingerprint, record_quality
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from .runtime import (
    active_registry,
    count,
    disable_metrics,
    enable_metrics,
    metrics_enabled,
    observe,
    record_error,
    record_operation,
    set_gauge,
)
from .server import (MetricsServer, PortInUseError,
                     bind_with_fallback, start_server)

__all__ = [
    "MetricsRegistry",
    "MetricFamily",
    "Counter",
    "Gauge",
    "Histogram",
    "active_registry",
    "enable_metrics",
    "disable_metrics",
    "metrics_enabled",
    "record_operation",
    "record_error",
    "count",
    "observe",
    "set_gauge",
    "render_prometheus",
    "MetricsServer",
    "PortInUseError",
    "bind_with_fallback",
    "start_server",
    "ingest_trace",
    "JsonLogFormatter",
    "configure_logging",
    "capture_logs",
    "get_logger",
    "FlightRecorder",
    "enable_flight",
    "disable_flight",
    "flight_recording",
    "record_quality",
    "dataset_fingerprint",
    "config_label",
    "append_history",
    "load_history",
    "detect_drift",
]
