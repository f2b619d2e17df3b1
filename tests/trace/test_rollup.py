"""One span roll-up: ``pressio trace``, ``pressio profile`` and ``/metrics``
report the same self time and the same throughput for a span.

Self time is a span's duration minus its same-thread direct children,
floored at 0; bytes count the uncompressed side of an operation, and
throughput is those bytes over inclusive time (docs/PROFILING.md).
"""

import re
import threading
import time

import numpy as np

from repro import PressioData
from repro.obs.bridge import ingest_profile, ingest_trace
from repro.obs.registry import MetricsRegistry
from repro.profile import StageProfiler, build_stage_rows
from repro.trace import aggregate, render_tree, tracing
from repro.trace.context import TraceContext
from repro.trace.runtime import wrap_task


def _tree_self_ms(tree: str, label: str) -> str:
    (line,) = [ln for ln in tree.splitlines() if label in ln]
    return re.search(r"\(self (\S+)ms\)", line).group(1)


def test_threaded_chunking_self_time_agrees_everywhere(library):
    comp = library.get_compressor("chunking")
    assert comp.set_options({
        "chunking:compressor": "sz_threadsafe",
        "chunking:nthreads": 2,
        "chunking:chunk_size": 32 * 32 * 8,
        "pressio:abs": 1e-4,
    }) == 0, comp.error_msg()
    rng = np.random.default_rng(0)
    field = np.cumsum(rng.standard_normal((32, 32, 32)), axis=0)
    data = PressioData.from_numpy(field.astype(np.float32))
    with tracing() as trace:
        comp.compress(data)
    (root,) = [sp for sp in trace.spans() if sp.parent_id is None]
    assert root.attrs["plugin"] == "chunking"
    assert any(c.thread_id != root.thread_id
               for c in trace.children(root))

    self_ms = aggregate(trace)["chunking"]["self_ms"]
    rows = {r["path"]: r for r in build_stage_rows(trace)}
    registry = MetricsRegistry()
    ingest_trace(trace, registry)

    assert self_ms > 0
    assert self_ms == trace.self_time_ns(root) / 1e6
    assert self_ms == rows["compress[chunking]"]["exclusive_ns"] / 1e6
    assert self_ms == registry.value("pressio_trace_self_ms",
                                     plugin="chunking")
    assert _tree_self_ms(render_tree(trace), "[chunking]") == \
        f"{self_ms:.3f}"
    assert trace.exclusive_invariant_violations() == []


def test_sz_decompress_bytes_and_throughput_agree(library):
    comp = library.get_compressor("sz")
    assert comp.set_options({"pressio:abs": 1e-4}) == 0
    rng = np.random.default_rng(1)
    field = np.cumsum(rng.standard_normal((24, 24, 24)), axis=0)
    data = PressioData.from_numpy(field)
    compressed = comp.compress(data)
    template = PressioData.empty(data.dtype, data.dims)
    with StageProfiler(track_alloc=False, sample_interval=None) as prof:
        comp.decompress(compressed, template)
    profile = prof.result()
    row = next(r for r in profile["stages"] if r["path"] == "decompress[sz]")
    agg = aggregate(prof.ctx)["sz"]

    # the uncompressed side of a decompress is its output
    assert agg["bytes"] == row["bytes"] == row["bytes_out"] == field.nbytes
    assert row["bytes_in"] == compressed.size_in_bytes
    assert agg["bytes_per_s"] == row["bytes_per_s"] > 0
    assert row["bytes_per_s"] == row["bytes"] / (row["inclusive_ns"] / 1e9)

    registry = MetricsRegistry()
    ingest_trace(prof.ctx, registry)
    ingest_profile(profile, registry)
    assert registry.value("pressio_trace_bytes_per_second", plugin="sz") \
        == registry.value("pressio_profile_stage_bytes_per_second",
                          stage="decompress[sz]")


def test_cross_thread_children_do_not_reduce_self_time():
    def work():
        with ctx.span("compress", plugin="leaf"):
            time.sleep(0.002)

    with tracing() as ctx:
        with ctx.span("compress", plugin="fanout") as parent:
            worker = threading.Thread(target=wrap_task(work))
            worker.start()
            worker.join()
            with ctx.span("local"):
                pass
    local = next(sp for sp in ctx.spans() if sp.name == "local")
    leaf = next(sp for sp in ctx.spans()
                if sp.attrs.get("plugin") == "leaf")
    assert leaf.parent_id == parent.span_id
    assert leaf.thread_id != parent.thread_id
    expected = parent.duration_ns - local.duration_ns
    assert ctx.self_time_ns(parent) == expected
    assert aggregate(ctx)["fanout"]["self_ms"] == expected / 1e6


def _many_spans(n: int) -> TraceContext:
    """``n`` spans: a chunking root with two sz children, each holding a
    stage span, repeated."""
    ctx = TraceContext()
    for _ in range(n // 5):
        with ctx.span("compress", plugin="chunking", input_bytes=4096):
            for _ in range(2):
                with ctx.span("compress", plugin="sz", input_bytes=2048):
                    with ctx.span("sz:quantize"):
                        pass
    return ctx


def test_twenty_thousand_spans_roll_up_in_linear_time():
    ctx = _many_spans(20_000)
    assert len(ctx.spans()) == 20_000
    start = time.perf_counter()
    rows = aggregate(ctx)
    tree = render_tree(ctx)
    stages = build_stage_rows(ctx)
    elapsed = time.perf_counter() - start
    assert rows["sz"]["calls"] == 8_000
    assert len(tree.splitlines()) == 20_000
    assert {r["path"] for r in stages} == {
        "compress[chunking]", "compress[chunking]/compress[sz]",
        "compress[chunking]/compress[sz]/sz:quantize"}
    assert elapsed < 5.0, f"20 000 spans took {elapsed:.1f}s to roll up"

