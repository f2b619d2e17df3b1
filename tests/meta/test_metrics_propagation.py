"""Metrics-hook propagation through meta-compressors.

A metrics plugin attached to a meta-compressor must observe each public
operation exactly once — no double counting from chunk fan-out, retries,
or candidate switching — with begin strictly before end.  The trace
subsystem complements this by observing the *leaf* operations exactly
once per chunk/evaluation; both invariants are pinned here.
"""

import numpy as np
import pytest

from repro import Pressio, PressioData
from repro.core.metrics import PressioMetrics
from repro.meta.parallel import _slabs
from repro.trace import disable_tracing, tracing


class RecordingMetrics(PressioMetrics):
    """Appends every hook invocation to an event list."""

    def __init__(self) -> None:
        super().__init__()
        self.events: list[str] = []

    def begin_compress(self, input) -> None:
        self.events.append("begin_compress")

    def end_compress(self, input, output) -> None:
        self.events.append("end_compress")

    def begin_decompress(self, input) -> None:
        self.events.append("begin_decompress")

    def end_decompress(self, input, output) -> None:
        self.events.append("end_decompress")


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    disable_tracing()
    yield
    disable_tracing()


def roundtrip(comp, arr):
    data = PressioData.from_numpy(np.asarray(arr))
    compressed = comp.compress(data)
    comp.decompress(compressed, PressioData.empty(data.dtype, data.dims))


ROUND_TRIP_EVENTS = ["begin_compress", "end_compress",
                     "begin_decompress", "end_decompress"]


class TestMetaHookCounts:
    @pytest.mark.parametrize("meta_id,options", [
        ("chunking", {"chunking:compressor": "sz",
                      "chunking:chunk_size": 2048,
                      "pressio:abs": 1e-3}),
        ("chunking", {"chunking:compressor": "sz_threadsafe",
                      "chunking:chunk_size": 1024,
                      "chunking:nthreads": 4,
                      "pressio:abs": 1e-3}),
        ("transpose", {"transpose:compressor": "sz",
                       "pressio:abs": 1e-3}),
        ("switch", {"switch:active_id": "zfp", "zfp:accuracy": 1e-3}),
        ("linear_quantizer", {"linear_quantizer:step": 1e-3}),
        ("fault_injector", {"fault_injector:compressor": "zlib",
                            "fault_injector:num_faults": 0}),
    ])
    def test_meta_observes_each_operation_once(self, library, smooth3d,
                                               meta_id, options):
        comp = library.get_compressor(meta_id)
        assert comp.set_options(options) == 0, comp.error_msg()
        recorder = RecordingMetrics()
        comp.set_metrics(recorder)
        roundtrip(comp, smooth3d)
        assert recorder.events == ROUND_TRIP_EVENTS

    def test_three_roundtrips_three_pairs(self, library, smooth3d):
        comp = library.get_compressor("chunking")
        assert comp.set_options({"chunking:compressor": "sz",
                                 "pressio:abs": 1e-3}) == 0
        recorder = RecordingMetrics()
        comp.set_metrics(recorder)
        for _ in range(3):
            roundtrip(comp, smooth3d)
        assert recorder.events == ROUND_TRIP_EVENTS * 3

    def test_inner_leaf_observed_once_per_outer_op(self, library, smooth3d):
        """A recorder attached to the leaf of a serial meta pipeline."""
        comp = library.get_compressor("transpose")
        assert comp.set_options({"transpose:compressor": "sz",
                                 "pressio:abs": 1e-3}) == 0
        recorder = RecordingMetrics()
        comp.inner.set_metrics(recorder)
        roundtrip(comp, smooth3d)
        assert recorder.events == ROUND_TRIP_EVENTS

    def test_nested_meta_stack_one_pair_per_layer(self, library, smooth3d):
        comp = library.get_compressor("many_independent")
        assert comp.set_options({
            "many_independent:compressor": "chunking",
            "chunking:compressor": "sz",
            "chunking:chunk_size": 4096,
            "pressio:abs": 1e-3,
        }) == 0
        outer_recorder = RecordingMetrics()
        inner_recorder = RecordingMetrics()
        comp.set_metrics(outer_recorder)
        comp.inner.set_metrics(inner_recorder)
        roundtrip(comp, smooth3d)
        assert outer_recorder.events == ROUND_TRIP_EVENTS
        assert inner_recorder.events == ROUND_TRIP_EVENTS


class TestLeafOperationsViaTrace:
    """Leaf-level exactly-once accounting, observed through span counts."""

    def test_chunking_leaf_ops_exactly_once_per_chunk(self, library,
                                                      smooth3d):
        comp = library.get_compressor("chunking")
        assert comp.set_options({"chunking:compressor": "sz",
                                 "chunking:chunk_size": 2048,
                                 "pressio:abs": 1e-3}) == 0
        n_chunks = len(list(_slabs(smooth3d.shape, 2048)))
        with tracing() as trace:
            roundtrip(comp, smooth3d)
        leaf_compress = [s for s in trace.spans()
                         if s.name == "compress"
                         and s.attrs.get("plugin") == "sz"]
        leaf_decompress = [s for s in trace.spans()
                           if s.name == "decompress"
                           and s.attrs.get("plugin") == "sz"]
        assert len(leaf_compress) == n_chunks
        assert len(leaf_decompress) == n_chunks

    def test_parallel_chunking_leaf_ops_exactly_once(self, library,
                                                     smooth3d):
        comp = library.get_compressor("chunking")
        assert comp.set_options({"chunking:compressor": "sz_threadsafe",
                                 "chunking:chunk_size": 1024,
                                 "chunking:nthreads": 4,
                                 "pressio:abs": 1e-3}) == 0
        n_chunks = len(list(_slabs(smooth3d.shape, 1024)))
        with tracing() as trace:
            roundtrip(comp, smooth3d)
        leaves = [s for s in trace.spans()
                  if s.attrs.get("plugin") == "sz_threadsafe"]
        assert len(leaves) == 2 * n_chunks  # compress + decompress each

    def test_switch_routes_to_exactly_one_candidate(self, library,
                                                    smooth3d):
        comp = library.get_compressor("switch")
        assert comp.set_options({
            "switch:compressor_ids": ["zfp", "zlib"],
            "switch:active_id": "zfp",
            "zfp:accuracy": 1e-3,
        }) == 0
        with tracing() as trace:
            roundtrip(comp, smooth3d)
        by_plugin = {}
        for s in trace.spans():
            key = s.attrs.get("plugin")
            by_plugin[key] = by_plugin.get(key, 0) + 1
        assert by_plugin.get("zfp") == 2  # one compress + one decompress
        assert "zlib" not in by_plugin
