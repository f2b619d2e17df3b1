"""Bridges from existing measurement sources into the metrics registry.

The registry (:mod:`repro.obs.registry`) is the *one* namespace a
scraper sees; this module maps the two measurement systems that predate
it onto that namespace:

* :func:`ingest_trace` — the per-plugin trace aggregate report
  (:func:`repro.trace.aggregate`) becomes ``pressio_trace_*`` gauges, so
  a scrape of a traced process shows the same calls/self-time/throughput
  table ``pressio trace`` prints;
* :func:`ingest_profile` — a stage-profile artifact
  (:meth:`repro.profile.StageProfiler.result`) becomes
  ``pressio_profile_*`` gauges labelled by stage path, so the last
  profile's attribution table is scrapeable next to the trace gauges.

Both are idempotent refreshes: gauges are *set*, not incremented, so
re-ingesting after every operation (what the metrics server does for
the ambient trace context) converges instead of double counting.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import runtime
from .registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from ..trace.context import TraceContext

__all__ = ["ingest_trace", "ingest_profile", "ingest_runtime"]


def _target(registry: MetricsRegistry | None) -> MetricsRegistry | None:
    return registry if registry is not None else runtime.ACTIVE


def ingest_trace(ctx: "TraceContext",
                 registry: MetricsRegistry | None = None) -> int:
    """Refresh ``pressio_trace_*`` gauges from a trace context.

    Returns the number of aggregate rows ingested (0 when no registry
    is active and none was passed).
    """
    reg = _target(registry)
    if reg is None:
        return 0
    from ..trace.export import aggregate

    rows = aggregate(ctx)
    calls = reg.gauge("pressio_trace_calls",
                      "span count per plugin/stage in the active trace",
                      ("plugin",))
    total = reg.gauge("pressio_trace_total_ms",
                      "total wall time per plugin/stage (ms)", ("plugin",))
    self_ms = reg.gauge("pressio_trace_self_ms",
                        "self wall time per plugin/stage (ms)", ("plugin",))
    rate = reg.gauge("pressio_trace_bytes_per_second",
                     "uncompressed-side throughput per plugin/stage",
                     ("plugin",))
    errors = reg.gauge("pressio_trace_errors",
                       "error-status span count per plugin/stage",
                       ("plugin",))
    for plugin, row in rows.items():
        calls.labels(plugin=plugin).set(row["calls"])
        total.labels(plugin=plugin).set(row["total_ms"])
        self_ms.labels(plugin=plugin).set(row["self_ms"])
        rate.labels(plugin=plugin).set(row["bytes_per_s"])
        errors.labels(plugin=plugin).set(row["errors"])
    counter_gauge = reg.gauge("pressio_trace_counter",
                              "named counters from the active trace",
                              ("name",))
    for name, value in ctx.counters().items():
        counter_gauge.labels(name=name).set(value)
    return len(rows)


def ingest_profile(profile: dict, registry: MetricsRegistry | None = None
                   ) -> int:
    """Refresh ``pressio_profile_*`` gauges from a stage-profile artifact.

    ``profile`` is the dict :meth:`repro.profile.StageProfiler.result`
    returns (schema ``pressio-profile/1``).  Gauges are labelled by the
    canonical stage path, plus a per-run ``pressio_profile_wall_ms``
    labelled by the profile's label.  Returns the number of stage rows
    ingested (0 when no registry is active and none was passed).
    """
    reg = _target(registry)
    if reg is None:
        return 0
    label = str(profile.get("label", "profile"))
    wall = reg.gauge("pressio_profile_wall_ms",
                     "wall time of the last stage profile (ms)", ("label",))
    wall.labels(label=label).set(profile.get("wall_ns", 0) / 1e6)
    excl = reg.gauge("pressio_profile_stage_exclusive_ms",
                     "exclusive wall time per profiled stage (ms)",
                     ("stage",))
    calls = reg.gauge("pressio_profile_stage_calls",
                      "span count per profiled stage", ("stage",))
    rate = reg.gauge("pressio_profile_stage_bytes_per_second",
                     "uncompressed-side throughput per profiled stage",
                     ("stage",))
    alloc = reg.gauge("pressio_profile_stage_alloc_net_bytes",
                      "net allocation growth per profiled stage (bytes)",
                      ("stage",))
    stages = profile.get("stages", [])
    for row in stages:
        stage = row["path"]
        excl.labels(stage=stage).set(row["exclusive_ns"] / 1e6)
        calls.labels(stage=stage).set(row["calls"])
        rate.labels(stage=stage).set(row.get("bytes_per_s", 0.0))
        alloc.labels(stage=stage).set(row.get("alloc_net_bytes", 0))
    return len(stages)


def ingest_runtime(registry: MetricsRegistry | None = None) -> int:
    """Refresh runtime gauges from the buffer pool and pipelined executor.

    Exposes the :mod:`repro.native.pool` hit/miss/return counters (see
    its module docstring) and the :mod:`repro.meta.pipeline` in-flight
    depth, so a scrape shows whether the native cores are recycling
    scratch and whether a pipelined compress is currently overlapped.
    Returns the number of gauges refreshed (0 when no registry is active
    and none was passed).
    """
    reg = _target(registry)
    if reg is None:
        return 0
    from ..meta import pipeline as _pipeline
    from ..native import pool as _pool

    pool_stats = _pool.stats()
    values = (
        ("pressio_pool_hits_total",
         "buffer-pool acquires served from a free list",
         pool_stats["hits"]),
        ("pressio_pool_misses_total",
         "buffer-pool acquires that fell through to the allocator",
         pool_stats["misses"]),
        ("pressio_pool_returns_total",
         "buffers returned to the pool's free lists",
         pool_stats["returned"]),
        ("pressio_pool_bytes",
         "bytes parked on this thread's pool free lists",
         pool_stats["pooled_bytes"]),
        ("pressio_pipeline_inflight",
         "stage-2 tasks queued or running in pipelined compressors",
         _pipeline.inflight),
        ("pressio_pipeline_inflight_peak",
         "high-water mark of in-flight pipelined stage-2 tasks",
         _pipeline.peak_inflight),
        ("pressio_pipeline_chunks_total",
         "chunks entropy-coded by pipelined stage-2 workers",
         _pipeline.stage2_total),
    )
    for name, help_text, value in values:
        reg.gauge(name, help_text).set(float(value))
    return len(values)
