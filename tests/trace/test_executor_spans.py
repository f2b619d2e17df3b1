"""Spans opened on the chunk executor's workers parent under the caller.

``chunking``, ``sz_omp`` and ``AsyncCompressor`` run their tasks on one
executor (:func:`repro.meta.parallel.run_tasks` and the rule it shares
with ``AsyncCompressor``), which carries the submitting thread's span
into every worker.  So one traced operation is one tree: no worker
span, and no native ``sz:*`` stage span, becomes a root of its own.
"""

import numpy as np
import pytest

from repro import PressioData
from repro.core import DType
from repro.meta.parallel import _slabs
from repro.streaming import AsyncCompressor, StreamingCompressor
from repro.trace import disable_tracing, stage, tracing


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    disable_tracing()
    yield
    disable_tracing()


def _root_of(span, by_id):
    while span.parent_id is not None:
        span = by_id[span.parent_id]
    return span


def _one_tree(trace):
    """The single root of ``trace``, after checking every span reaches it."""
    spans = trace.spans()
    by_id = {s.span_id: s for s in spans}
    roots = [s for s in spans if s.parent_id is None]
    assert len(roots) == 1, [s.name for s in roots]
    assert all(_root_of(s, by_id) is roots[0] for s in spans)
    return roots[0]


def _field(shape=(64, 32, 32)):
    rng = np.random.default_rng(2)
    return np.cumsum(rng.standard_normal(shape), axis=0)


def _sz_omp(library, nthreads=4):
    comp = library.get_compressor("sz_omp")
    assert comp.set_options({"sz_omp:nthreads": nthreads,
                             "pressio:abs": 1e-3}) == 0, comp.error_msg()
    return comp


class TestSzOmp:
    def test_compress_is_one_tree(self, library):
        comp = _sz_omp(library)
        with tracing() as trace:
            comp.compress(PressioData.from_numpy(_field()))
        root = _one_tree(trace)
        assert root.name == "compress" and root.attrs["plugin"] == "sz_omp"
        stages = [s for s in trace.spans() if s.name.startswith("sz:")]
        # quantize, predict and entropy per slab, all below the root
        assert len(stages) >= 12
        assert len({s.thread_id for s in stages}) > 1

    def test_decompress_is_one_tree(self, library):
        comp = _sz_omp(library)
        arr = _field()
        stream = comp.compress(PressioData.from_numpy(arr))
        with tracing() as trace:
            out = comp.decompress(stream,
                                  PressioData.empty(DType.DOUBLE, arr.shape))
        assert np.max(np.abs(out.to_numpy() - arr)) <= 1e-3
        root = _one_tree(trace)
        assert root.name == "decompress"
        stages = [s for s in trace.spans() if s.name.startswith("sz:")]
        assert stages and len({s.thread_id for s in stages}) > 1

    def test_records_one_operation_per_call(self, library):
        comp = _sz_omp(library)
        with tracing() as trace:
            comp.compress(PressioData.from_numpy(_field()))
        ops = [s for s in trace.spans() if s.name == "compress"]
        assert len(ops) == 1


class TestAsync:
    @pytest.mark.parametrize("plugin", ["sz", "sz_threadsafe"])
    def test_map_compress_stays_under_the_caller(self, library, plugin):
        comp = library.get_compressor(plugin)
        assert comp.set_options({"pressio:abs": 1e-3}) == 0
        datas = [PressioData.from_numpy(_field((8, 16, 16)) + i)
                 for i in range(4)]
        with AsyncCompressor(comp, max_workers=3) as pool:
            with tracing() as trace:
                with stage("batch"):
                    streams = pool.map_compress(datas)
        assert len(streams) == 4
        root = _one_tree(trace)
        assert root.name == "batch"
        ops = [s for s in trace.spans() if s.name == "compress"]
        assert len(ops) == 4 and all(s.parent_id == root.span_id
                                     for s in ops)

    def test_pipelined_stream_stays_under_the_caller(self, library):
        comp = library.get_compressor("sz_threadsafe")
        assert comp.set_options({"pressio:abs": 1e-3}) == 0
        values = _field((12, 16, 16)).reshape(-1)
        with tracing() as trace:
            with stage("produce"):
                producer = StreamingCompressor(comp, DType.DOUBLE,
                                               frame_elements=1024,
                                               pipelined=True)
                producer.write(values)
                producer.finish()
        root = _one_tree(trace)
        assert root.name == "produce"
        assert len([s for s in trace.spans() if s.name == "compress"]) == 3


class TestThreadedChunking:
    @pytest.mark.parametrize("op", ["compress", "decompress"])
    def test_keeps_its_tree(self, library, op):
        arr = _field((32, 16, 16))
        comp = library.get_compressor("chunking")
        assert comp.set_options({"chunking:compressor": "sz_threadsafe",
                                 "chunking:chunk_size": 1024,
                                 "chunking:nthreads": 4,
                                 "pressio:abs": 1e-3}) == 0
        stream = comp.compress(PressioData.from_numpy(arr))
        with tracing() as trace:
            if op == "compress":
                comp.compress(PressioData.from_numpy(arr))
            else:
                comp.decompress(stream,
                                PressioData.empty(DType.DOUBLE, arr.shape))
        root = _one_tree(trace)
        assert root.name == op and root.attrs["plugin"] == "chunking"
        assert root.attrs["parallel"] is True
        assert root.attrs["n_workers"] == 4
        n_chunks = len(list(_slabs(arr.shape, 1024)))
        assert root.attrs["n_tasks"] == n_chunks
        workers = trace.children(root)
        assert [w.name for w in workers] == [op] * n_chunks
        assert all(w.attrs["plugin"] == "sz_threadsafe" for w in workers)
        # the native stages hang off each chunk's operation
        for w in workers:
            assert all(c.name.startswith("sz:") for c in trace.children(w))
