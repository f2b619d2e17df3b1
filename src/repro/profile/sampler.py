"""A wall-clock sampling profiler for code outside span coverage.

The deterministic stage profiler only sees what the span
instrumentation covers; a scalar loop buried in an encoder that never
opens a span is invisible to it.  This sampler fills the gap the way
py-spy/perf do, but in-process and dependency-free: a daemon thread
wakes every ``interval`` seconds, grabs :func:`sys._current_frames`,
and records each *other* thread's Python stack with a
``perf_counter_ns`` timestamp.

Because every sample is timestamped on the same clock the spans use,
:func:`merge_samples` can place each sample **inside the innermost span
open at that instant on that thread** — producing one merged call tree:
stage path first, sampled Python frames below it.  That is how a hot
helper shows up *under* ``compress[sz]/sz:entropy`` in the flamegraph
instead of floating in an unrelated root.

Sampling is cooperative with the GIL: a sample shows where the
interpreter actually spends bytecode time (including inside numpy calls
the calling frame is blocked on), which is exactly the attribution the
ROADMAP's vectorization work needs.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Any

from ..trace.context import Span, TraceContext
from ..trace.export import _SpanIndex

__all__ = ["SamplingProfiler", "merge_samples"]

#: frames deeper than this are dropped from a sample (innermost kept)
MAX_FRAMES = 12

#: stdlib/infrastructure file substrings pruned from sampled stacks
_PRUNE = ("threading.py", "profile/sampler.py")


class SamplingProfiler:
    """Background sampler collecting timestamped Python stacks.

    ``samples`` is a list of ``(t_ns, thread_id, frames)`` where
    ``frames`` is an innermost-first tuple of ``"function (file:line)"``
    strings.  The sampler thread never samples itself.
    """

    def __init__(self, interval: float = 0.002,
                 max_frames: int = MAX_FRAMES):
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        self.interval = interval
        self.max_frames = max_frames
        self.samples: list[tuple[int, int, tuple[str, ...]]] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle --------------------------------------------------------
    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise RuntimeError("sampler already started")
        self._thread = threading.Thread(
            target=self._run, name="pressio-sampler", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    # -- sampling loop ----------------------------------------------------
    def _run(self) -> None:
        own_id = threading.get_ident()
        while not self._stop.wait(self.interval):
            now = time.perf_counter_ns()
            for tid, frame in sys._current_frames().items():
                if tid == own_id:
                    continue
                stack = self._extract(frame)
                if stack:
                    self.samples.append((now, tid, stack))

    def _extract(self, frame: Any) -> tuple[str, ...]:
        out: list[str] = []
        while frame is not None and len(out) < self.max_frames:
            code = frame.f_code
            filename = code.co_filename.replace("\\", "/")
            short = "/".join(filename.split("/")[-2:])
            if not any(p in short for p in _PRUNE):
                out.append(f"{code.co_name} ({short}:{frame.f_lineno})")
            frame = frame.f_back
        return tuple(out)  # innermost first


def _innermost_span_at(t_ns: int, tid: int,
                       spans: list[Span]) -> Span | None:
    """Deepest (shortest) closed span on thread ``tid`` open at ``t_ns``."""
    return min((sp for sp in spans if sp.thread_id == tid
                and sp.end_ns is not None
                and sp.start_ns <= t_ns <= sp.end_ns),
               key=lambda sp: sp.duration_ns, default=None)


def merge_samples(sampler: SamplingProfiler,
                  ctx: TraceContext) -> dict[str, Any]:
    """Assign samples to enclosing stage paths; aggregate by stack.

    Returns the ``samples`` section of the profile artifact::

        {"interval_s": 0.002, "count": N, "unattributed": M,
         "stacks": [{"stage": "compress[sz]/sz:entropy",
                     "frames": ["inner (...)", ...],  # innermost first
                     "count": 17}, ...]}
    """
    from .stage import span_path

    # the stage rows' index and path key, so a sample's stage names a row
    index = _SpanIndex([sp for sp in ctx.spans() if sp.end_ns is not None])
    agg: dict[tuple[str, tuple[str, ...]], int] = {}
    unattributed = 0
    for t_ns, tid, frames in sampler.samples:
        sp = _innermost_span_at(t_ns, tid, index.spans)
        if sp is None:
            stage = ""
            unattributed += 1
        else:
            stage = span_path(sp, index.by_id)
        key = (stage, frames)
        agg[key] = agg.get(key, 0) + 1
    stacks = [
        {"stage": stage, "frames": list(frames), "count": count}
        for (stage, frames), count in
        sorted(agg.items(), key=lambda kv: -kv[1])
    ]
    return {
        "interval_s": sampler.interval,
        "count": len(sampler.samples),
        "unattributed": unattributed,
        "stacks": stacks,
    }
