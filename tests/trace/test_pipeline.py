"""Integration tests: tracing a real compression pipeline.

Covers the acceptance criterion: a traced ``parallel(chunking(sz))``
round trip produces a span tree whose root wall time >= the sum of its
direct children's self time, with per-thread worker spans correctly
parented under the dispatching operation.
"""

import json

import numpy as np
import pytest

from repro import Pressio, PressioData
from repro.meta.parallel import _slabs
from repro.trace import disable_tracing, render_tree, tracing


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    disable_tracing()
    yield
    disable_tracing()


def roundtrip(comp, arr):
    data = PressioData.from_numpy(np.asarray(arr))
    compressed = comp.compress(data)
    template = PressioData.empty(data.dtype, data.dims)
    return comp.decompress(compressed, template)


class TestLeafSpans:
    def test_compress_decompress_spans(self, library, smooth3d):
        comp = library.get_compressor("sz")
        comp.set_options({"pressio:abs": 1e-4})
        with tracing() as trace:
            roundtrip(comp, smooth3d)
        # two operation roots; the sz native core adds per-stage child
        # spans (sz:quantize, sz:entropy, ...) underneath each
        roots = trace.roots()
        assert [s.name for s in roots] == ["compress", "decompress"]
        for sp in roots:
            assert sp.attrs["plugin"] == "sz"
            assert sp.attrs["input_bytes"] > 0
            assert sp.attrs["output_bytes"] > 0
            assert sp.attrs["dims"] == list(smooth3d.shape)
            assert sp.status == "ok"

    def test_error_recorded_on_span(self, library):
        from repro.core import DType

        comp = library.get_compressor("sz")
        bad = PressioData.from_bytes(b"not a stream")
        with tracing() as trace:
            with pytest.raises(Exception):
                comp.decompress(bad, PressioData.empty(DType.DOUBLE, (4,)))
        assert trace.spans()[0].status.startswith("error")

    def test_no_spans_without_tracing(self, library, smooth3d):
        comp = library.get_compressor("sz")
        comp.set_options({"pressio:abs": 1e-4})
        with tracing() as trace:
            pass  # tracing active only while nothing runs
        roundtrip(comp, smooth3d)
        assert trace.spans() == []


class TestPipelineSpanTree:
    def test_acceptance_parallel_chunking_sz(self, library, smooth3d):
        """The ISSUE acceptance tree: parallel(chunking(sz)) round trip."""
        comp = library.get_compressor("many_independent")
        assert comp.set_options({
            "many_independent:compressor": "chunking",
            "chunking:compressor": "sz",
            "chunking:chunk_size": 2048,
            "pressio:abs": 1e-4,
        }) == 0, comp.error_msg()
        with tracing() as trace:
            roundtrip(comp, smooth3d)
        roots = trace.roots()
        assert len(roots) == 2  # compress, decompress
        for root in roots:
            children = trace.children(root)
            assert children, "root operation should have child spans"
            child_self_ns = sum(trace.self_time_ns(c) for c in children)
            assert root.duration_ns >= child_self_ns
            # grandchildren are the sz leaf operations, exactly one per chunk
            leaves = [g for c in children for g in trace.children(c)]
            n_chunks = len(list(_slabs(smooth3d.shape, 2048)))
            assert len([l for l in leaves
                        if l.attrs.get("plugin") == "sz"]) == n_chunks

    def test_worker_spans_parented_across_threads(self, library, smooth3d):
        comp = library.get_compressor("chunking")
        assert comp.set_options({
            "chunking:compressor": "sz_threadsafe",
            "chunking:chunk_size": 1024,
            "chunking:nthreads": 4,
            "pressio:abs": 1e-4,
        }) == 0, comp.error_msg()
        with tracing() as trace:
            data = PressioData.from_numpy(smooth3d)
            comp.compress(data)
        root = trace.roots()[0]
        assert root.attrs["parallel"] is True
        workers = trace.children(root)
        assert len(workers) == len(list(_slabs(smooth3d.shape, 1024)))
        # every worker span hangs off the dispatching compress span,
        # and the work actually spread over more than one thread
        assert all(w.parent_id == root.span_id for w in workers)
        assert len({w.thread_id for w in workers}) > 1
        assert any(w.thread_id != root.thread_id for w in workers)

    def test_transform_stage_spans_nested(self, library, smooth3d):
        comp = library.get_compressor("transpose")
        assert comp.set_options({"transpose:compressor": "sz",
                                 "pressio:abs": 1e-4}) == 0
        with tracing() as trace:
            roundtrip(comp, smooth3d)
        names = [s.name for s in trace.spans()]
        assert "transpose:forward" in names
        assert "transpose:inverse" in names
        forward = [s for s in trace.spans()
                   if s.name == "transpose:forward"][0]
        outer = [s for s in trace.spans()
                 if s.attrs.get("plugin") == "transpose"][0]
        assert forward.parent_id == outer.span_id

    def test_opt_search_spans_and_annotations(self, library, smooth3d):
        comp = library.get_compressor("opt")
        assert comp.set_options({
            "opt:compressor": "sz",
            "opt:target_ratio": 8.0,
            "opt:max_iterations": 6,
        }) == 0
        with tracing() as trace:
            comp.compress(PressioData.from_numpy(smooth3d))
        evals = [s for s in trace.spans() if s.name == "opt:evaluate"]
        assert 1 <= len(evals) <= 6
        assert all("bound" in s.attrs and "ratio" in s.attrs for s in evals)
        outer = trace.roots()[0]
        assert "chosen_bound" in outer.attrs
        assert "opt:evaluated_ratio" in trace.histograms()

    def test_switch_dispatch_annotated_and_counted(self, library, smooth3d):
        comp = library.get_compressor("switch")
        assert comp.set_options({"switch:active_id": "zfp",
                                 "zfp:accuracy": 1e-3}) == 0
        with tracing() as trace:
            roundtrip(comp, smooth3d)
        outer = [s for s in trace.spans()
                 if s.attrs.get("plugin") == "switch"]
        assert all(s.attrs["active_id"] == "zfp" for s in outer)
        assert trace.counters()["switch:dispatch:zfp"] == 1

    def test_fault_injector_counter(self, library, smooth3d):
        comp = library.get_compressor("fault_injector")
        assert comp.set_options({"fault_injector:compressor": "noop",
                                 "fault_injector:num_faults": 3}) == 0
        with tracing() as trace:
            try:
                roundtrip(comp, smooth3d)
            except Exception:
                pass  # corrupted stream may legitimately fail to decode
        assert trace.counters()["fault_injector:bits_flipped"] == 3


class TestTraceMetricsPlugin:
    def test_results_through_standard_interface(self, library, smooth3d):
        comp = library.get_compressor("chunking")
        comp.set_options({"chunking:compressor": "sz",
                          "chunking:chunk_size": 4096,
                          "pressio:abs": 1e-4})
        comp.set_metrics(library.get_metric("trace"))
        roundtrip(comp, smooth3d)
        results = comp.get_metrics_results()
        assert results.get("trace:span_count") > 0
        assert results.get("trace:total_ms") > 0
        n_chunks = len(list(_slabs(smooth3d.shape, 4096)))
        assert results.get("trace:sz:calls") == 2 * n_chunks
        assert results.get("trace:sz:self_ms") > 0
        assert results.get("trace:sz:bytes_per_s") > 0

    def test_composes_with_other_metrics(self, library, smooth3d):
        comp = library.get_compressor("sz")
        comp.set_options({"pressio:abs": 1e-4})
        comp.set_metrics(library.get_metric(["size", "time", "trace"]))
        roundtrip(comp, smooth3d)
        results = comp.get_metrics_results()
        assert results.get("size:compression_ratio") > 1.0
        assert results.get("time:compress") > 0
        assert results.get("trace:span_count") > 0

    def test_defers_to_ambient_context(self, library, smooth3d):
        comp = library.get_compressor("sz")
        comp.set_options({"pressio:abs": 1e-4})
        metric = library.get_metric("trace")
        comp.set_metrics(metric)
        with tracing() as ambient:
            roundtrip(comp, smooth3d)
            results = comp.get_metrics_results()
        # no duplicate op spans: the ambient context holds exactly one
        # compress and one decompress span, and results come from it
        names = [s.name for s in ambient.spans()]
        assert names.count("compress") == 1
        assert names.count("decompress") == 1
        assert results.get("trace:span_count") == len(ambient.spans())

    def test_exports_on_results(self, library, smooth3d, tmp_path):
        jsonl = tmp_path / "spans.jsonl"
        chrome = tmp_path / "chrome.json"
        comp = library.get_compressor("sz")
        comp.set_options({"pressio:abs": 1e-4})
        metric = library.get_metric("trace")
        assert metric.set_options({"trace:jsonl_path": str(jsonl),
                                   "trace:chrome_path": str(chrome)}) == 0
        comp.set_metrics(metric)
        roundtrip(comp, smooth3d)
        comp.get_metrics_results()
        lines = jsonl.read_text().splitlines()
        assert len(lines) >= 2
        assert json.loads(lines[0])["type"] == "span"
        assert json.loads(chrome.read_text())["traceEvents"]

    def test_reset_clears_spans(self, library, smooth3d):
        comp = library.get_compressor("sz")
        comp.set_options({"pressio:abs": 1e-4})
        metric = library.get_metric("trace")
        comp.set_metrics(metric)
        roundtrip(comp, smooth3d)
        metric.reset()
        assert comp.get_metrics_results().get("trace:span_count") == 0

    def test_tracing_disabled_after_each_operation(self, library, smooth3d):
        from repro.trace import active_tracer

        comp = library.get_compressor("sz")
        comp.set_options({"pressio:abs": 1e-4})
        comp.set_metrics(library.get_metric("trace"))
        roundtrip(comp, smooth3d)
        assert active_tracer() is None


class TestTraceCli:
    def test_trace_subcommand_prints_tree_and_report(self, capsys):
        from repro.tools.cli import run

        rc = run(["trace", "--compressor", "chunking",
                  "--option", "chunking:compressor=sz",
                  "--option", "pressio:abs=1e-4",
                  "--synthetic", "nyx", "--dims", "16,16,16"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "span tree:" in out
        assert "compress [chunking]" in out
        assert "plugin/stage" in out
        assert "sz" in out

    def test_trace_subcommand_exports(self, tmp_path, capsys):
        from repro.tools.cli import run

        jsonl = tmp_path / "t.jsonl"
        chrome = tmp_path / "c.json"
        rc = run(["trace", "--compressor", "sz",
                  "--option", "pressio:abs=1e-4",
                  "--synthetic", "nyx", "--dims", "16,16,16",
                  "--jsonl", str(jsonl), "--chrome-trace", str(chrome),
                  "--no-tree", "--no-report"])
        assert rc == 0
        assert jsonl.exists() and chrome.exists()
        records = [json.loads(l) for l in jsonl.read_text().splitlines()]
        assert any(r["type"] == "span" for r in records)
        assert json.loads(chrome.read_text())["traceEvents"]

    def test_trace_unknown_compressor_fails(self, capsys):
        from repro.tools.cli import run

        assert run(["trace", "--compressor", "nope",
                    "--synthetic", "nyx", "--dims", "8,8,8"]) == 2

    def test_classic_cli_unaffected(self, capsys):
        from repro.tools.cli import run

        assert run(["--list"]) == 0
        assert "compressors:" in capsys.readouterr().out
