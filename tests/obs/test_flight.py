"""Flight recorder: ring semantics, dump triggers, replay, overhead.

The recorder is the "what just happened" forensic layer: always cheap,
never required in advance of a failure.  These tests pin the ring's
overwrite/ordering behaviour, the three dump triggers (unhandled
exception, ``SIGUSR2``, ``CorruptStreamError`` on the taxonomy), the
bundle schema, replay through the existing trace exporters, and — the
contract everything else rides on — that the *disabled* path still
costs only the single ``repro._hot.ANY`` read the tracer alone imposed.
"""

import json
import os
import signal
import sys
import time

import numpy as np
import pytest

from repro import PressioData
from repro.core import CorruptStreamError, PressioError
from repro.obs import flight
from repro.obs import runtime as obs_runtime
from repro.trace import context as trace_context
from repro.trace import render_tree, tracing
from tests.trace.test_overhead import assert_disabled_guard_below_one_percent


# ---------------------------------------------------------------------------
# ring semantics
# ---------------------------------------------------------------------------

class TestRing:
    def test_capacity_bounds_and_ordering(self):
        rec = flight.FlightRecorder(capacity=4)
        for i in range(7):
            rec.record("tick", i=i)
        events = rec.snapshot()
        assert len(events) == 4
        assert [e["i"] for e in events] == [3, 4, 5, 6]
        assert [e["seq"] for e in events] == [3, 4, 5, 6]

    def test_events_carry_clock_and_thread(self):
        rec = flight.FlightRecorder(capacity=8)
        rec.record("tick")
        (event,) = rec.snapshot()
        assert event["kind"] == "tick"
        assert event["perf_ns"] <= time.perf_counter_ns()
        assert event["thread_id"]

    def test_unserializable_fields_coerced_to_strings(self):
        rec = flight.FlightRecorder(capacity=2)
        rec.record("tick", payload=object(), nested={"k": object()})
        (event,) = rec.snapshot()
        json.dumps(event)  # whole entry must be JSON-clean
        assert isinstance(event["payload"], str)
        assert isinstance(event["nested"]["k"], str)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            flight.FlightRecorder(capacity=0)


# ---------------------------------------------------------------------------
# taps: spans and bare operations land in the ring
# ---------------------------------------------------------------------------

class TestTaps:
    def test_closed_spans_reach_the_ring_via_span_sink(self, tmp_path):
        with flight.flight_recording(dump_dir=str(tmp_path)) as rec:
            assert trace_context.SPAN_SINK is not None
            with tracing() as trace:
                with trace.span("outer"):
                    with trace.span("inner"):
                        pass
        names = [e["name"] for e in rec.snapshot() if e["kind"] == "span"]
        # children close before parents: sink order is inner, outer
        assert names == ["inner", "outer"]

    def test_operations_recorded_when_tracing_is_off(self, library,
                                                     tmp_path):
        comp = library.get_compressor("sz")
        assert comp.set_options({"pressio:abs": 1e-4}) == 0
        data = PressioData.from_numpy(
            np.random.default_rng(0).random(256))
        template = PressioData.empty(data.dtype, data.dims)
        with flight.flight_recording(dump_dir=str(tmp_path)) as rec:
            comp.decompress(comp.compress(data), template)
        ops = [e for e in rec.snapshot() if e["kind"] == "operation"]
        assert [e["operation"] for e in ops] == ["compress", "decompress"]
        assert all(e["plugin"] == "sz" for e in ops)
        assert all(e["duration_ns"] >= 0 for e in ops)

    def test_disable_restores_span_sink_and_active(self, tmp_path):
        flight.enable_flight(dump_dir=str(tmp_path), install_hooks=False)
        assert flight.ACTIVE is not None
        flight.disable_flight()
        assert flight.ACTIVE is None
        assert trace_context.SPAN_SINK is None

    def test_nested_scope_restores_the_outer_recorder(self, tmp_path):
        with flight.flight_recording(dump_dir=str(tmp_path)) as outer:
            with flight.flight_recording(dump_dir=str(tmp_path)) as inner:
                assert flight.ACTIVE is inner
                assert trace_context.SPAN_SINK == inner.record_span
            assert flight.ACTIVE is outer
            assert trace_context.SPAN_SINK == outer.record_span
            with tracing() as trace:
                with trace.span("after-inner"):
                    pass
        assert flight.ACTIVE is None
        assert trace_context.SPAN_SINK is None
        assert [e["name"] for e in outer.snapshot()
                if e["kind"] == "span"] == ["after-inner"]
        assert inner.snapshot() == []


# ---------------------------------------------------------------------------
# dump triggers
# ---------------------------------------------------------------------------

class TestDumpTriggers:
    def test_manual_dump_bundle_schema(self, tmp_path):
        rec = flight.FlightRecorder(capacity=8, dump_dir=str(tmp_path))
        rec.record("tick", i=1)
        path = rec.dump("manual", exc=ValueError("boom"))
        assert path is not None and rec.dumps == [path]
        bundle = json.load(open(path))
        assert bundle["schema"] == flight.BUNDLE_SCHEMA
        assert bundle["reason"] == "manual"
        assert bundle["pid"] == os.getpid()
        assert bundle["events_recorded"] == 1
        assert bundle["events"][0]["kind"] == "tick"
        exc = bundle["exception"]
        assert exc["etype"] == "ValueError"
        assert exc["message"] == "boom"
        assert any("ValueError" in line for line in exc["traceback"])

    def test_dump_write_failure_swallowed(self, tmp_path):
        rec = flight.FlightRecorder(
            capacity=2, dump_dir=str(tmp_path / "missing"))
        assert rec.dump("manual") is None
        assert rec.dumps == []

    def test_corrupt_stream_during_decompress_dumps_bundle(
            self, library, tmp_path):
        """ISSUE acceptance: a planted CorruptStreamError produces a
        bundle holding the last span events and the taxonomy entry."""
        comp = library.get_compressor("sz")
        assert comp.set_options({"pressio:abs": 1e-4}) == 0
        data = PressioData.from_numpy(
            np.random.default_rng(3).random(512))
        template = PressioData.empty(data.dtype, data.dims)
        with flight.flight_recording(dump_dir=str(tmp_path)) as rec:
            with tracing():
                compressed = comp.compress(data)
                raw = bytearray(compressed.to_bytes())
                raw[8:24] = b"\xff" * 16  # corrupt the stream body
                with pytest.raises(CorruptStreamError):
                    comp.decompress(PressioData.from_bytes(bytes(raw)),
                                    template)
        assert len(rec.dumps) == 1
        bundle = json.load(open(rec.dumps[0]))
        assert bundle["reason"] == "corrupt-stream"
        assert bundle["exception"]["etype"] == "CorruptStreamError"
        kinds = {e["kind"] for e in bundle["events"]}
        assert "span" in kinds, "last-N span events must be in the bundle"
        errors = [e for e in bundle["events"] if e["kind"] == "error"]
        assert errors and errors[-1]["etype"] == "CorruptStreamError"
        assert errors[-1]["operation"] == "decompress"
        assert errors[-1]["plugin"] == "sz"

    def test_other_errors_recorded_but_do_not_dump(self, tmp_path):
        with flight.flight_recording(dump_dir=str(tmp_path)) as rec:
            obs_runtime.record_error("compress", "sz",
                                     PressioError("bound too tight"))
        assert rec.dumps == []
        (event,) = [e for e in rec.snapshot() if e["kind"] == "error"]
        assert event["etype"] == "PressioError"

    def test_unhandled_exception_hook_dumps_then_delegates(self, tmp_path):
        seen = []
        prev_hook = sys.excepthook
        sys.excepthook = lambda *a: seen.append(a)
        try:
            rec = flight.enable_flight(dump_dir=str(tmp_path),
                                       install_hooks=True)
            try:
                err = RuntimeError("crash")
                sys.excepthook(RuntimeError, err, None)
                assert len(rec.dumps) == 1
                bundle = json.load(open(rec.dumps[0]))
                assert bundle["reason"] == "unhandled-exception"
                assert bundle["exception"]["etype"] == "RuntimeError"
                assert seen and seen[0][1] is err  # previous hook ran
            finally:
                flight.disable_flight()
            assert sys.excepthook is not prev_hook  # our stand-in is back
        finally:
            sys.excepthook = prev_hook

    @pytest.mark.skipif(not hasattr(signal, "SIGUSR2"),
                        reason="platform without SIGUSR2")
    def test_enabling_twice_keeps_the_user_hooks(self, tmp_path):
        def user_hook(etype, value, tb):
            pass

        def user_handler(signum, frame):
            pass

        prev_hook = sys.excepthook
        prev_handler = signal.signal(signal.SIGUSR2, user_handler)
        sys.excepthook = user_hook
        try:
            flight.enable_flight(dump_dir=str(tmp_path), install_hooks=True)
            flight.enable_flight(dump_dir=str(tmp_path), install_hooks=True)
            flight.disable_flight()
            assert sys.excepthook is user_hook
            assert signal.getsignal(signal.SIGUSR2) is user_handler
        finally:
            flight.disable_flight()
            sys.excepthook = prev_hook
            signal.signal(signal.SIGUSR2, prev_handler)

    @pytest.mark.skipif(not hasattr(signal, "SIGUSR2"),
                        reason="platform without SIGUSR2")
    def test_sigusr2_dumps_and_continues(self, tmp_path):
        rec = flight.enable_flight(dump_dir=str(tmp_path),
                                   install_hooks=True)
        try:
            rec.record("tick", i=1)
            os.kill(os.getpid(), signal.SIGUSR2)
            deadline = time.monotonic() + 5.0
            while not rec.dumps and time.monotonic() < deadline:
                time.sleep(0.01)  # handler runs at a bytecode boundary
            assert len(rec.dumps) == 1
            bundle = json.load(open(rec.dumps[0]))
            assert bundle["reason"] == "sigusr2"
            assert any(e["kind"] == "signal" for e in bundle["events"])
        finally:
            flight.disable_flight()
        # the previous disposition is restored
        assert signal.getsignal(signal.SIGUSR2) is not flight._sigusr2_handler


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

class TestReplay:
    def test_bundle_replays_through_trace_exporters(self, library,
                                                    tmp_path):
        comp = library.get_compressor("sz")
        assert comp.set_options({"pressio:abs": 1e-4}) == 0
        data = PressioData.from_numpy(
            np.random.default_rng(1).random(256))
        template = PressioData.empty(data.dtype, data.dims)
        with flight.flight_recording(dump_dir=str(tmp_path)) as rec:
            with tracing():
                comp.decompress(comp.compress(data), template)
            obs_runtime.record_error("decompress", "sz",
                                     CorruptStreamError("late corruption"))
        path = rec.dumps[0]  # the CorruptStreamError auto-dump

        ctx = flight.replay(path)
        names = {sp.name for sp in ctx.spans()}
        assert {"compress", "decompress"} <= names
        assert all(sp.end_ns is not None for sp in ctx.spans())
        assert ctx.counters()["flight:error:CorruptStreamError"] == 1
        # the replayed tree renders like a live capture
        tree = render_tree(ctx)
        assert "compress" in tree
        # and fresh spans never collide with replayed ids
        assert ctx.allocate_span_id() > max(sp.span_id
                                            for sp in ctx.spans())

    def test_replay_accepts_in_memory_bundle(self):
        ctx = flight.replay({"events": [
            {"kind": "span", "name": "op", "span_id": 5,
             "parent_id": None, "thread": 1, "start_ns": 10,
             "end_ns": 30, "status": "ok", "attrs": {"k": "v"}},
            {"kind": "operation", "operation": "compress"},
        ]})
        (sp,) = ctx.spans()
        assert (sp.name, sp.span_id, sp.start_ns, sp.end_ns) == \
            ("op", 5, 10, 30)
        assert ctx.counters()["flight:operation:compress"] == 1


# ---------------------------------------------------------------------------
# overhead: the disabled path is still one _hot.ANY read
# ---------------------------------------------------------------------------

def test_disabled_flight_overhead_below_one_percent(library):
    """With every observer off the guarded public API stays within 1% of
    the raw operation bodies: the flight recorder added no second
    sentinel to the disabled path.  The measurement is the tracer's, so
    both observers are held to one method and one bound."""
    assert_disabled_guard_below_one_percent(library)
