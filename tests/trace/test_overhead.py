"""Micro-benchmarks: every observer must be zero-cost when disabled.

The instrumented ``compress``/``decompress`` entry points read one
module global, ``repro._hot.ANY``, before delegating to the operation
body (``_compress_op``/``_decompress_op``); the tracer, the metrics
registry and the flight recorder all turn that one flag on, and the
stage profiler and the sanitizer add nothing at all while dormant.
These tests pin that claim for every observer at once, so the paper's
Fig. 3 overhead numbers (< 0.5 % median over native APIs) cannot
silently regress.

Two measurements:

* **Guard cost vs a real round trip** — a small-buffer round trip
  through the public (guarded) API must stay within 1 % of driving the
  operation bodies directly.  The guard cost is measured in isolation
  by stubbing the operation bodies out with no-ops, so the
  guarded-vs-direct difference is a few hundred nanoseconds against a
  microsecond-scale baseline — then compared against the real round
  trip's cost.  (Timing the full guarded and unguarded round trips
  separately and differencing them is hopeless on shared CI machines:
  the ~0.1 % signal drowns in multi-percent scheduler jitter.)  Minima
  over many batches estimate each noise-free cost.
* **Dormant packages on ``noop``** — with ``repro.profile`` or
  ``repro.sanitize`` imported but off, a ``noop`` round trip (zero
  compression work, so any per-call bookkeeping is maximally visible)
  is statistically indistinguishable from the unguarded bodies:
  guarded and unguarded batches are the arms of one
  :func:`repro.obs.bench.paired` run, compared by the median of
  per-pair ratios.
"""

import importlib
import os
import time
from functools import partial

import numpy as np
import pytest

from repro import PressioData, _hot
from repro.obs import flight
from repro.obs.bench import paired
from repro.trace import active_tracer, disable_tracing, tracing


@pytest.fixture(autouse=True)
def _tracing_disabled():
    disable_tracing()
    yield
    disable_tracing()


def _time_batch(fn, reps: int) -> int:
    t0 = time.perf_counter_ns()
    for _ in range(reps):
        fn()
    return time.perf_counter_ns() - t0


def test_disabled_tracing_overhead_below_one_percent(library):
    assert active_tracer() is None
    assert_disabled_guard_below_one_percent(library)


def assert_disabled_guard_below_one_percent(library):
    """The disabled-path pin, shared with the flight recorder's test."""
    assert flight.ACTIVE is None and not _hot.ANY
    comp = library.get_compressor("sz")
    assert comp.set_options({"pressio:abs": 1e-4}) == 0
    rng = np.random.default_rng(7)
    data = PressioData.from_numpy(rng.random(4096))
    template = PressioData.empty(data.dtype, data.dims)

    # cost of one real round trip through the guarded public API
    def real():
        compressed = comp.compress(data)
        comp.decompress(compressed, template)

    _time_batch(real, 10)  # warm caches, allocators, lazy plugin state
    real_ns = min(_time_batch(real, 30) for _ in range(15)) / 30

    # isolate the guard itself: stub the operation bodies to no-ops so
    # guarded-vs-direct differs only by the compress()/decompress()
    # wrapper logic being pinned here
    canned = comp._compress_op(data, None)
    orig_c, orig_d = comp._compress_op, comp._decompress_op
    try:
        comp._compress_op = lambda inp, out: canned
        comp._decompress_op = lambda inp, out: template
        reps, batches = 2000, 15

        def stub_guarded():
            comp.decompress(comp.compress(data), template)

        def stub_direct():
            comp._decompress_op(comp._compress_op(data, None), template)

        _time_batch(stub_guarded, 200)
        _time_batch(stub_direct, 200)
        g = min(_time_batch(stub_guarded, reps) for _ in range(batches))
        d = min(_time_batch(stub_direct, reps) for _ in range(batches))
    finally:
        comp._compress_op, comp._decompress_op = orig_c, orig_d

    guard_ns = max(g - d, 0) / reps
    overhead = guard_ns / real_ns
    assert overhead < 0.01, (
        f"disabled-observer guard cost {guard_ns:.0f}ns is {overhead:.2%} "
        f"of a {real_ns / 1e3:.1f}us round trip (limit 1%)"
    )


@pytest.mark.parametrize("package", [
    "repro.profile",
    pytest.param("repro.sanitize", marks=pytest.mark.skipif(
        os.environ.get("PRESSIO_SANITIZE") == "1",
        reason="session-wide sanitizer active: off-cost is not measurable")),
])
def test_dormant_package_noop_overhead_within_noise(library, package):
    dormant = importlib.import_module(package)  # hooks present, all off

    assert active_tracer() is None
    assert _hot.ANY is False
    if package == "repro.sanitize":
        assert dormant.is_enabled() is False
    comp = library.get_compressor("noop")
    data = PressioData.from_numpy(np.random.default_rng(13).random(4096))
    template = PressioData.empty(data.dtype, data.dims)

    def guarded():
        compressed = comp.compress(data)
        comp.decompress(compressed, template)

    def unguarded():
        compressed = comp._compress_op(data, None)
        comp._decompress_op(compressed, template)

    _time_batch(guarded, 10)
    _time_batch(unguarded, 10)

    def measure() -> float:
        run = paired(partial(_time_batch, guarded, 40),
                     partial(_time_batch, unguarded, 40), pairs=21)
        return run.median_ratio(arm=0, base=1) - 1.0

    # "within noise": the guard is one global read + comparison; 5% of
    # a noop round trip is far above its true cost (<0.1%) but below
    # what any real per-call hook would show.  A preempted measurement
    # can spuriously exceed that, so re-measure up to three times — a
    # *real* per-call hook fails every attempt.
    overheads = []
    for _ in range(3):
        overheads.append(measure())
        if overheads[-1] < 0.05:
            break
    assert min(overheads) < 0.05, (
        f"{package} off: overhead on noop exceeded 5% in all of "
        f"{len(overheads)} attempts: "
        + ", ".join(f"{o:.2%}" for o in overheads)
    )


def test_enabled_tracing_records_without_changing_results(library):
    """Sanity companion: tracing on must not alter compression output."""
    comp = library.get_compressor("sz")
    assert comp.set_options({"pressio:abs": 1e-4}) == 0
    rng = np.random.default_rng(11)
    data = PressioData.from_numpy(rng.random(2048))

    plain = comp.compress(data).to_bytes()
    with tracing() as trace:
        traced = comp.compress(data).to_bytes()
    assert traced == plain
    # one root span for the operation; the sz native core contributes
    # per-stage child spans (sz:quantize, sz:predict, sz:entropy, ...)
    spans = trace.spans()
    roots = [s for s in spans if s.parent_id is None]
    assert len(roots) == 1
    assert roots[0].name == "compress"
    assert all(s.parent_id == roots[0].span_id for s in spans
               if s is not roots[0])
