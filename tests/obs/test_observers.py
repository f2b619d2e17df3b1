"""One observation path: the ``_hot.ANY`` sentinel and the shared helper.

Every change to the tracer's, the registry's or the flight recorder's
``ACTIVE`` goes through :func:`repro._hot.swap`, so ``ANY`` is true
exactly when one of the three is on — for the enable/disable functions
and for the scoped managers, nested or not.  ``compress`` and
``decompress`` run every observed operation through one helper; these
tests pin that the registry counts the same with tracing on or off and
that a flight-only run still records plain ``"operation"`` events.
"""

import itertools
import sys
import threading
from contextlib import ExitStack

import numpy as np
import pytest

from repro import PressioData, _hot
from repro.obs import flight, prometheus
from repro.obs import runtime as obs_runtime
from repro.trace import runtime as trace_runtime

MODULES = (trace_runtime, obs_runtime, flight)
ENABLE = (trace_runtime.enable_tracing, obs_runtime.enable_metrics,
          lambda: flight.enable_flight(install_hooks=False))
DISABLE = (trace_runtime.disable_tracing, obs_runtime.disable_metrics,
           flight.disable_flight)
SCOPED = (trace_runtime.tracing, obs_runtime.metrics_enabled,
          flight.flight_recording)


@pytest.fixture(autouse=True)
def _observers_off():
    for disable in DISABLE:
        disable()
    yield
    for disable in DISABLE:
        disable()


def _state():
    return tuple(m.ACTIVE is not None for m in MODULES)


@pytest.mark.parametrize(
    "combo", list(itertools.product((False, True), repeat=3)),
    ids=lambda combo: "".join(c if on else "-"
                              for c, on in zip("TRF", combo)))
def test_any_is_true_exactly_when_an_observer_is_on(combo):
    for on, enable in zip(combo, ENABLE):
        if on:
            enable()
    assert (_state(), _hot.ANY) == (combo, any(combo))
    for on, disable in zip(combo, DISABLE):
        if on:
            disable()
    assert (_state(), _hot.ANY) == ((False,) * 3, False)

    with ExitStack() as outer:
        installed = [outer.enter_context(scoped()) if on else None
                     for on, scoped in zip(combo, SCOPED)]
        assert (_state(), _hot.ANY) == (combo, any(combo))
        with ExitStack() as inner:
            for scoped in SCOPED:
                inner.enter_context(scoped())
            assert (_state(), _hot.ANY) == ((True,) * 3, True)
        # the inner scopes hand back exactly the outer observers
        assert [m.ACTIVE for m in MODULES] == installed
        assert _hot.ANY is any(combo)
    assert (_state(), _hot.ANY) == ((False,) * 3, False)


def test_stage_is_the_shared_null_context_when_tracing_is_off():
    assert trace_runtime.stage("x", k=1) is trace_runtime._NULL_CM
    with trace_runtime.tracing():
        assert trace_runtime.stage("x") is not trace_runtime._NULL_CM


# ---------------------------------------------------------------------------
# the shared compress/decompress helper keeps both outputs
# ---------------------------------------------------------------------------

PLUGINS = ("sz", "zfp")
ROUNDS = 3
SERIES = ("pressio_operations_total", "pressio_processed_bytes_total",
          "pressio_operation_duration_seconds_count")


def _workload(library):
    for cid in PLUGINS:
        comp = library.get_compressor(cid)
        assert comp.set_options({"pressio:abs": 1e-3}) == 0
        for seed in range(ROUNDS):
            rng = np.random.default_rng(seed)
            data = PressioData.from_numpy(rng.random((16, 16, 8)))
            template = PressioData.empty(data.dtype, data.dims)
            comp.decompress(comp.compress(data), template)


def _scrape(library, traced):
    with obs_runtime.metrics_enabled() as registry:
        if traced:
            with trace_runtime.tracing():
                _workload(library)
        else:
            _workload(library)
    doc = prometheus.parse(prometheus.render(registry))
    return {name: sorted((sorted(s.labels.items()), s.value)
                         for s in doc.series(name))
            for name in SERIES}


def test_registry_counts_the_same_with_tracing_on_or_off(library):
    untraced = _scrape(library, traced=False)
    traced = _scrape(library, traced=True)
    assert untraced == traced
    ops = untraced["pressio_operations_total"]
    assert len(ops) == 2 * len(PLUGINS)
    assert all(value == ROUNDS for _labels, value in ops)
    assert all(value == ROUNDS for _labels, value
               in untraced["pressio_operation_duration_seconds_count"])


def test_flight_only_run_records_operation_events(library, tmp_path):
    with flight.flight_recording(dump_dir=str(tmp_path)) as rec:
        _workload(library)
    events = rec.snapshot()
    assert {e["kind"] for e in events} == {"operation"}
    assert [(e["plugin"], e["operation"]) for e in events] == [
        (cid, op) for cid in PLUGINS for _ in range(ROUNDS)
        for op in ("compress", "decompress")]
    for event in events:
        assert set(event) == {"seq", "kind", "perf_ns", "thread_id",
                              "operation", "plugin", "dtype",
                              "duration_ns", "input_bytes",
                              "output_bytes"}
        assert event["dtype"] == "DOUBLE"
        assert event["duration_ns"] >= 0
    assert flight.replay(rec.dump("manual")).counters() == {
        "flight:operation:compress": ROUNDS * len(PLUGINS),
        "flight:operation:decompress": ROUNDS * len(PLUGINS)}


def test_concurrent_toggles_leave_any_consistent():
    """Lost updates between observers would leave ANY set with all off."""
    def toggle(enable, disable):
        for _ in range(300):
            enable()
            disable()

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=toggle, args=pair)
                   for pair in zip(ENABLE, DISABLE) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    assert (_state(), _hot.ANY) == ((False,) * 3, False)
