"""Performance attribution: stage profiles, flamegraphs, profile diffs.

Layered on the span tracer (:mod:`repro.trace`) and the shared hot-path
sentinel (:mod:`repro._hot`), so profiling is **zero-cost when
disabled** — the same one-global-read guarantee the tracer and the
metrics registry already honour (pinned in
``tests/trace/test_overhead.py``).

Usage::

    from repro.profile import StageProfiler, format_stage_table

    with StageProfiler() as prof:
        compressor.compress(data)
        compressor.decompress(compressed, template)
    profile = prof.result(meta={"compressor": "sz"})
    print(format_stage_table(profile))        # per-stage attribution
    write_collapsed(profile, "prof.folded")   # flamegraph input

``pressio profile`` drives this from the command line (including
``--diff A.json B.json``), and ``pressio bench --profile`` captures one
profile per benchmark configuration so the nightly regression gate can
name the guilty stage.
"""

from .diff import attribute_regression, diff_profiles, format_diff
from .export import (
    format_memory_report,
    format_sample_report,
    format_stage_table,
    git_revision,
    load_profile,
    write_collapsed,
    write_profile,
)
from .sampler import SamplingProfiler, merge_samples
from .stage import (
    SCHEMA,
    ProfilingTraceContext,
    StageProfiler,
    build_stage_rows,
    span_path,
)

__all__ = [
    "SCHEMA",
    "ProfilingTraceContext",
    "SamplingProfiler",
    "StageProfiler",
    "attribute_regression",
    "build_stage_rows",
    "diff_profiles",
    "format_diff",
    "format_memory_report",
    "format_sample_report",
    "format_stage_table",
    "git_revision",
    "load_profile",
    "merge_samples",
    "span_path",
    "write_collapsed",
    "write_profile",
]
