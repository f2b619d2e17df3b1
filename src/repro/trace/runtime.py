"""The process-wide active trace context and zero-cost guards.

The hot path in :meth:`repro.core.compressor.PressioCompressor.compress`
reads one module global (``ACTIVE``) and compares it to ``None``; when
tracing is disabled that is the *entire* cost, so the Fig. 3 overhead
numbers are unaffected (``tests/trace/test_overhead.py`` pins this).

Helpers here are all safe to call with tracing disabled — they degrade
to no-ops — so instrumentation sites never need their own guards:

* :func:`stage` — a span context manager (nullcontext when disabled);
* :func:`annotate` — set attributes on the current span;
* :func:`add_counter` / :func:`observe` — counter/histogram forwarding;
* :func:`wrap_task` — carry the current span across a thread boundary
  so worker-pool spans parent correctly.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Iterator

from .. import _hot
from .context import _CURRENT_SPAN, Span, TraceContext

__all__ = [
    "ACTIVE",
    "active_tracer",
    "enable_tracing",
    "disable_tracing",
    "tracing",
    "current_span",
    "stage",
    "annotate",
    "add_counter",
    "observe",
    "wrap_task",
]

#: The active trace context, or None when tracing is disabled.
ACTIVE: TraceContext | None = None

_NULL_CM = nullcontext()
_SELF = sys.modules[__name__]


def active_tracer() -> TraceContext | None:
    """The active :class:`TraceContext`, or None when disabled."""
    return ACTIVE


def enable_tracing(ctx: TraceContext | None = None) -> TraceContext:
    """Install ``ctx`` (or a fresh context) as the active tracer."""
    if ctx is None:
        ctx = TraceContext()
    _hot.swap(_SELF, ctx)
    return ctx


def disable_tracing() -> TraceContext | None:
    """Deactivate tracing; returns the context that was active."""
    return _hot.swap(_SELF, None)


@contextmanager
def tracing(ctx: TraceContext | None = None) -> Iterator[TraceContext]:
    """Scoped tracing: activate for the block, restore the prior state.

    ::

        with tracing() as trace:
            compressor.compress(data)
        print(format_report(trace))
    """
    installed = ctx if ctx is not None else TraceContext()
    previous = _hot.swap(_SELF, installed)
    try:
        yield installed
    finally:
        _hot.swap(_SELF, previous)


def current_span() -> Span | None:
    """The innermost open span, or None (also None when disabled)."""
    if ACTIVE is None:
        return None
    return _CURRENT_SPAN.get()


def stage(name: str, **attrs: Any):
    """A span context manager, or a shared nullcontext when disabled.

    This is the one-liner instrumentation sites use::

        with _trace.stage("transpose:forward", order=order):
            ...
    """
    ctx = ACTIVE
    if ctx is None:
        return _NULL_CM
    return ctx.span(name, **attrs)


def annotate(**attrs: Any) -> None:
    """Attach attributes to the current span (no-op when disabled)."""
    if ACTIVE is None:
        return
    sp = _CURRENT_SPAN.get()
    if sp is not None:
        sp.attrs.update(attrs)


def add_counter(name: str, value: float = 1) -> None:
    """Bump a named counter on the active context (no-op when disabled)."""
    ctx = ACTIVE
    if ctx is not None:
        ctx.add_counter(name, value)


def observe(name: str, value: float) -> None:
    """Record a histogram observation (no-op when disabled)."""
    ctx = ACTIVE
    if ctx is not None:
        ctx.observe(name, value)


def wrap_task(fn: Callable) -> Callable:
    """Propagate the calling thread's current span into worker threads.

    ``ContextVar`` state does not cross ``ThreadPoolExecutor`` workers,
    so without this the spans a worker opens would become roots.  The
    wrapper re-installs the submitting thread's current span as the
    parent for the duration of the task.  When tracing is disabled the
    original callable is returned untouched (zero wrapping cost).
    """
    if ACTIVE is None:
        return fn
    parent = _CURRENT_SPAN.get()

    def run(*args: Any, **kwargs: Any) -> Any:
        token = _CURRENT_SPAN.set(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            _CURRENT_SPAN.reset(token)

    return run
