"""Unit tests for the buffer-lifetime interpreter and lock-order graph.

These drive :mod:`repro.analysis.dataflow` directly on small synthetic
modules, independent of the rule packs, so interpreter regressions are
pinpointed at the feature (aliasing, try/finally, allocators, ...)
rather than surfacing as fixture-count drift.
"""

import textwrap

import pytest

from repro.analysis.dataflow import (CallGraph, allocator_keys,
                                     analyze_buffers, build_lock_graph,
                                     param_returners)
from repro.analysis.project import ProjectIndex, SourceModule

PRELUDE = "import numpy as np\nfrom repro.native import pool as _pool\n"


def _index(source, rel="synthetic/mod.py"):
    module = SourceModule(rel, rel, PRELUDE + textwrap.dedent(source))
    assert module.parse_error is None, module.parse_error
    return ProjectIndex([module])


def _events(source, fn):
    index = _index(source)
    graph = CallGraph.for_index(index)
    info = graph.functions[f"synthetic/mod.py:{fn}"]
    return analyze_buffers(info, graph)


def _leak_kinds(events):
    return sorted((name, kind) for name, kind, _node in events.leaks)


class TestLeakDetection:
    def test_exception_edge_leak(self):
        events = _events(
            """
            def f(data):
                buf = _pool.acquire(data.shape, np.uint8)
                work(data, buf)
                _pool.release(buf)

            def work(data, buf):
                buf[...] = data
            """, "f")
        assert _leak_kinds(events) == [("buf", "exception")]

    def test_try_finally_is_clean(self):
        events = _events(
            """
            def f(data):
                buf = _pool.acquire(data.shape, np.uint8)
                try:
                    work(data, buf)
                finally:
                    _pool.release(buf)

            def work(data, buf):
                buf[...] = data
            """, "f")
        assert not events.leaks and not events.escapes

    def test_early_return_leak(self):
        events = _events(
            """
            def f(data, fast):
                buf = _pool.acquire(data.shape, np.uint8)
                if fast:
                    return None
                _pool.release(buf)
            """, "f")
        assert _leak_kinds(events) == [("buf", "return")]

    def test_rebind_leak(self):
        events = _events(
            """
            def f(n):
                buf = _pool.acquire((n,), np.uint8)
                buf = _pool.acquire((n,), np.float64)
                _pool.release(buf)
            """, "f")
        assert _leak_kinds(events) == [("buf", "rebind")]

    def test_pool_calls_do_not_raise(self):
        # back-to-back acquires must not count as exception edges
        events = _events(
            """
            def f(n):
                a = _pool.acquire((n,), np.uint8)
                b = _pool.acquire((n,), np.float64)
                _pool.release(a, b)
            """, "f")
        assert not events.leaks

    def test_with_items_raise_like_plain_calls(self):
        # a `with _trace.stage(...)` header is as non-raising as the
        # same call in an assignment; any other call still raises
        source = """
            from repro.trace import runtime as _trace

            def f(n):
                buf = _pool.acquire((n,), np.uint8)
                with {item}:
                    pass
                _pool.release(buf)
            """
        events = _events(source.format(item='_trace.stage("x", n=n)'), "f")
        assert not events.leaks
        events = _events(source.format(item='open("x")'), "f")
        assert _leak_kinds(events) == [("buf", "exception")]

    def test_double_release(self):
        events = _events(
            """
            def f(n):
                buf = _pool.acquire((n,), np.uint8)
                _pool.release(buf)
                _pool.release(buf)
            """, "f")
        assert [name for name, _node in events.double_releases] == ["buf"]

    def test_conditional_release_via_none_guard(self):
        events = _events(
            """
            def f(n):
                pooled = None
                if n % 64:
                    pooled = _pool.acquire((n,), np.uint8)
                if pooled is not None:
                    _pool.release(pooled)
            """, "f")
        assert not events.leaks and not events.double_releases


class TestAliasing:
    def test_view_alias_released_through_either_name(self):
        events = _events(
            """
            def f(n):
                buf = _pool.acquire((n,), np.uint8)
                try:
                    flat = buf.ravel()
                except BaseException:
                    _pool.release(buf)
                    raise
                _pool.release(flat)
            """, "f")
        assert not events.leaks and not events.double_releases

    def test_out_kwarg_alias(self):
        events = _events(
            """
            def f(data, n):
                buf = _pool.acquire((n,), np.int64)
                try:
                    codes = quantize(data, out=buf)
                except BaseException:
                    _pool.release(buf)
                    raise
                _pool.release(codes)

            def quantize(data, out):
                out[...] = data
                return out
            """, "f")
        assert not events.leaks

    def test_param_returner_alias(self):
        # helper returns a reshape of its first argument: assigning its
        # result aliases the argument rather than escaping it
        events = _events(
            """
            def f(n):
                blocks = _pool.acquire((n, 4), np.int64)
                try:
                    kept = shift(blocks)
                except BaseException:
                    _pool.release(blocks)
                    raise
                _pool.release(kept)

            def shift(blocks):
                return blocks.reshape(-1)
            """, "f")
        assert not events.leaks
        assert not events.escapes

    def test_release_of_one_alias_frees_the_group(self):
        events = _events(
            """
            def f(n):
                buf = _pool.acquire((n,), np.uint8)
                view = buf.reshape(-1)
                _pool.release(buf)
                _pool.release(view)
            """, "f")
        assert [name for name, _node in events.double_releases] == ["view"]


class TestEscapes:
    def test_attribute_store_escape(self):
        events = _events(
            """
            class Box:
                def prime(self, n):
                    buf = _pool.acquire((n,), np.uint8)
                    self._scratch = buf
            """, "Box.prime")
        assert [(n, k) for n, k, _ in events.escapes] == [("buf",
                                                           "attribute")]

    def test_return_escape(self):
        events = _events(
            """
            def f(n):
                buf = _pool.acquire((n,), np.uint8)
                return {"scratch": buf}
            """, "f")
        assert [(n, k) for n, k, _ in events.escapes] == [("buf", "return")]

    def test_call_argument_in_return_is_not_an_escape(self):
        events = _events(
            """
            def f(n):
                buf = _pool.acquire((n,), np.uint8)
                try:
                    return encode(buf)
                finally:
                    _pool.release(buf)

            def encode(buf):
                return bytes(buf)
            """, "f")
        assert not events.escapes
        assert not events.leaks

    def test_ownership_marker_allows_return(self):
        events = _events(
            """
            def stage_open(n):
                \"\"\"Open a span; pool-ownership: caller releases it.\"\"\"
                buf = _pool.acquire((n,), np.uint8)
                return buf
            """, "stage_open")
        assert not events.escapes and not events.leaks


class TestCallGraphSummaries:
    def test_allocator_detection_and_caller_obligation(self):
        index = _index(
            """
            def fresh(n):
                return _pool.acquire((n,), np.uint8)

            def leaky(n):
                buf = fresh(n)
                return None

            def careful(n):
                buf = fresh(n)
                _pool.release(buf)
            """)
        graph = CallGraph.for_index(index)
        assert "synthetic/mod.py:fresh" in allocator_keys(graph)
        leaky = analyze_buffers(graph.functions["synthetic/mod.py:leaky"],
                                graph)
        assert _leak_kinds(leaky) == [("buf", "return")]
        careful = analyze_buffers(
            graph.functions["synthetic/mod.py:careful"], graph)
        assert not careful.leaks

    def test_param_returner_summary(self):
        index = _index(
            """
            def shift(blocks, n):
                if n:
                    return blocks.reshape(-1)
                return blocks
            """)
        graph = CallGraph.for_index(index)
        assert param_returners(graph) == {"synthetic/mod.py:shift": 0}


class TestLockOrderGraph:
    def _graph(self, source):
        index = _index(source)
        CallGraph.for_index(index)
        return build_lock_graph(index)

    def test_opposite_orders_form_a_cycle(self):
        order = self._graph(
            """
            import threading

            class P:
                def __init__(self):
                    self._a_lock = threading.Lock()
                    self._b_lock = threading.Lock()

                def put(self):
                    with self._a_lock:
                        with self._b_lock:
                            pass

                def drain(self):
                    with self._b_lock:
                        with self._a_lock:
                            pass
            """)
        cyclic = order.cyclic_edges()
        assert len(cyclic) == 2
        pairs = {(e.first.split(":")[-1], e.second.split(":")[-1])
                 for e in cyclic}
        assert pairs == {("P._a_lock", "P._b_lock"),
                         ("P._b_lock", "P._a_lock")}

    def test_consistent_order_is_acyclic(self):
        order = self._graph(
            """
            import threading

            class P:
                def __init__(self):
                    self._a_lock = threading.Lock()
                    self._b_lock = threading.Lock()

                def put(self):
                    with self._a_lock:
                        with self._b_lock:
                            pass

                def drain(self):
                    with self._a_lock:
                        with self._b_lock:
                            pass
            """)
        assert order.cyclic_edges() == []

    def test_edge_through_call_graph(self):
        order = self._graph(
            """
            import threading

            class P:
                def __init__(self):
                    self._a_lock = threading.Lock()
                    self._b_lock = threading.Lock()

                def outer(self):
                    with self._a_lock:
                        self._inner()

                def _inner(self):
                    with self._b_lock:
                        pass

                def reverse(self):
                    with self._b_lock:
                        with self._a_lock:
                            pass
            """)
        cyclic = order.cyclic_edges()
        pairs = {(e.first.split(":")[-1], e.second.split(":")[-1])
                 for e in cyclic}
        assert ("P._a_lock", "P._b_lock") in pairs
        assert ("P._b_lock", "P._a_lock") in pairs
