"""The ``pipelined`` chunk-pipelined executor.

Acceptance-critical property: its output is byte-identical to the
``chunking`` plugin for the same chunk size and inner compressor, for
every inner that implements the stage split *and* for inners that do
not (fallback path) — so the two plugins' streams are interchangeable.
"""

import numpy as np
import pytest

from repro import PressioData
from repro.core.status import PressioError
from repro.meta import pipeline as pipeline_mod
from repro.meta.parallel import _slabs


@pytest.fixture()
def field():
    rng = np.random.default_rng(42)
    return np.cumsum(rng.standard_normal(24 ** 3)).reshape(24, 24, 24)


def _pair(library, inner, options, chunk_size=4096, depth=2):
    chunk = library.get_compressor("chunking")
    pipe = library.get_compressor("pipelined")
    for comp in (chunk, pipe):
        comp.set_inner(inner)
        assert comp.set_options(options) == 0, comp.error_msg()
    assert chunk.set_options({"chunking:chunk_size": chunk_size}) == 0
    assert pipe.set_options({"pipelined:chunk_size": chunk_size,
                             "pipelined:depth": depth}) == 0
    return chunk, pipe


@pytest.mark.parametrize("inner,options", [
    ("sz", {"pressio:abs": 1e-4}),
    ("zfp", {"pressio:abs": 1e-4}),
    ("mgard", {"pressio:abs": 1e-3}),
])
def test_byte_identical_to_chunking(library, field, inner, options):
    chunk, pipe = _pair(library, inner, options)
    assert pipe.inner.supports_stage_split()
    # at 4096 elements both 24 and 30 rows cut into 7-row slabs, and
    # their 3- and 2-row tails merge into the last slab
    longer = np.concatenate([field, field[:6]])
    assert list(_slabs(field.shape, 4096))[-1] == (14, 24)
    assert list(_slabs(longer.shape, 4096))[-1] == (21, 30)
    for arr in (field, longer):
        data = PressioData.from_numpy(arr)
        serial = chunk.compress(data).to_bytes()
        pipelined = pipe.compress(data).to_bytes()
        assert pipelined == serial

        # and the stream decodes through either plugin's (inherited)
        # decoder
        template = PressioData.empty(data.dtype, data.dims)
        out = chunk.decompress(PressioData.from_bytes(pipelined),
                               template).to_numpy()
        bound = options.get("pressio:abs", options.get("mgard:tolerance"))
        assert np.max(np.abs(out - arr)) <= bound * (1 + 1e-12)


def test_fallback_when_inner_has_no_stage_split(library, field):
    chunk, pipe = _pair(library, "noop", {})
    assert not pipe.inner.supports_stage_split()
    data = PressioData.from_numpy(field)
    assert pipe.compress(data).to_bytes() == chunk.compress(data).to_bytes()


def test_depth_bounds_inflight_and_counters_advance(library, field):
    pipeline_mod.reset_stats()
    _, pipe = _pair(library, "sz", {"pressio:abs": 1e-4},
                    chunk_size=1024, depth=3)
    pipe.compress(PressioData.from_numpy(field))
    assert pipeline_mod.inflight == 0  # everything reaped
    assert 1 <= pipeline_mod.peak_inflight <= 3
    assert pipeline_mod.stage2_total == len(list(_slabs(field.shape, 1024)))


def test_single_chunk_still_roundtrips(library):
    _, pipe = _pair(library, "sz", {"pressio:abs": 1e-4},
                    chunk_size=1 << 20)
    arr = np.linspace(0.0, 1.0, 500)
    data = PressioData.from_numpy(arr)
    stream = pipe.compress(data)
    out = pipe.decompress(stream, PressioData.empty(data.dtype, data.dims))
    assert np.max(np.abs(out.to_numpy() - arr)) <= 1e-4


def test_options_validated(library):
    pipe = library.get_compressor("pipelined")
    assert pipe.set_options({"pipelined:depth": 0}) != 0
    assert pipe.set_options({"pipelined:chunk_size": 0}) != 0
    assert pipe.set_options({"pipelined:depth": 4,
                             "pipelined:chunk_size": 100}) == 0
    opts = pipe.get_options()
    assert int(opts.get("pipelined:depth")) == 4
    assert int(opts.get("pipelined:chunk_size")) == 100
    assert opts.get("pipelined:nthreads") is not None


def test_stage1_error_surfaces_and_reaps_inflight(library):
    pipeline_mod.reset_stats()
    _, pipe = _pair(library, "sz", {"pressio:abs": 1e-30}, chunk_size=256)
    # bound too tight for the magnitudes: quantizer overflows even after
    # the mean-centering retry (the spread itself exceeds the code range)
    bad = np.linspace(-1e30, 1e30, 2048)
    with pytest.raises(PressioError):
        pipe.compress(PressioData.from_numpy(bad))
    assert pipeline_mod.inflight == 0


def test_base_stage_hooks_compose_to_compress(library):
    """Default (non-split) hooks: stage2(stage1(x)) == compress(x)."""
    comp = library.get_compressor("noop")
    data = PressioData.from_numpy(np.arange(64, dtype=np.float64))
    staged = comp.compress_stage2(comp.compress_stage1(data)).to_bytes()
    assert staged == comp.compress(data).to_bytes()
    with pytest.raises(PressioError):
        comp.compress_stage2({"not": "a PressioData"})


@pytest.mark.parametrize("dims", [(0, 5), (5, 0), (0,)])
def test_empty_zfp_round_trips_through_both_stacks(library, dims):
    arr = np.zeros(dims)
    data = PressioData.from_numpy(arr)
    template = PressioData.empty(data.dtype, data.dims)
    # serial zfp and its stage split write one stream
    zfp = library.get_compressor("zfp")
    assert zfp.set_options({"pressio:abs": 1e-4}) == 0
    staged = zfp.compress_stage2(zfp.compress_stage1(data)).to_bytes()
    assert zfp.compress(data).to_bytes() == staged
    chunk, pipe = _pair(library, "zfp", {"pressio:abs": 1e-4})
    streams = [comp.compress(data) for comp in (chunk, pipe)]
    assert streams[0].to_bytes() == streams[1].to_bytes()
    for comp, stream in zip((chunk, pipe), streams):
        out = comp.decompress(stream, template).to_numpy()
        assert out.shape == dims
