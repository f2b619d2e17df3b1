"""In-memory spans recorded around the program's layer entry points.

The traced run wraps public functions and methods where the program
looks them up (module globals, package attributes, class attributes),
records one span per call — name, start, end, thread, parent — and
writes the spans out when the run ends.  It never turns on the
program's own tracer, profiler or flight recorder: those flip
``repro._hot.ANY`` and would measure a different program.

Self time is a span's duration minus the union of its children's
intervals on the same thread.  Children that ran on other threads
(pipelined stage 2, chunking workers) do not reduce self time; they
count toward a meta span's busy time, and busy over wall is its
overlap.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    thread: int
    id: int
    parent: int | None

    @property
    def duration(self) -> int:
        return self.end - self.start


class Recorder:
    """Collects spans from wrapped callables on any thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def current(self) -> int | None:
        stack = getattr(self._tls, "stack", None)
        if stack:
            return stack[-1]
        return getattr(self._tls, "inherited", None)

    def wrap(self, fn, name: str):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tls = rec._tls
            stack = getattr(tls, "stack", None)
            if stack is None:
                stack = tls.stack = []
            parent = stack[-1] if stack else getattr(tls, "inherited", None)
            sid = next(rec._ids)
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                rec.spans.append(Span(name, t0, t1, threading.get_ident(),
                                      sid, parent))
        return wrapper

    # -- patching -------------------------------------------------------
    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name))

    def patch_executor(self, module) -> None:
        """Make ``module.ThreadPoolExecutor`` carry the submitting span
        into worker threads and time the caller's waits on futures."""
        self._patches.append((module, "ThreadPoolExecutor",
                              module.ThreadPoolExecutor))
        module.ThreadPoolExecutor = self.executor_class()

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def executor_class(self):
        rec = self

        class _Future:
            def __init__(self, fut) -> None:
                self._fut = fut

            def result(self, timeout=None):
                return rec.wrap(self._fut.result, "meta.wait")(timeout)

            def __getattr__(self, attr):
                return getattr(self._fut, attr)

        class TracedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = rec.current()

                def task():
                    rec._tls.inherited = parent
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        rec._tls.inherited = None
                return _Future(super().submit(task))

        return TracedExecutor

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for sp in self.spans:
                f.write(json.dumps(asdict(sp)) + "\n")


# -- analysis ---------------------------------------------------------------
def union_length(intervals) -> int:
    """Total length covered by a set of half-open ``(start, end)``."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_of(spans) -> dict[int, list[Span]]:
    kids: dict[int, list[Span]] = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            kids[sp.parent].append(sp)
    return kids


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus its same-thread children's union."""
    kids = children_of(spans)
    out = {}
    for sp in spans:
        covered = [(max(c.start, sp.start), min(c.end, sp.end))
                   for c in kids.get(sp.id, ()) if c.thread == sp.thread]
        out[sp.id] = sp.duration - union_length(covered)
    return out


def busy_time(span: Span, kids: dict[int, list[Span]], selfs: dict[int, int],
              idle=("meta.wait",)) -> int:
    """Self time plus, per thread, the union of the span's direct
    children that do work (waits excluded): the time something worked
    for this span, which can exceed its wall time when children
    overlapped on other threads."""
    per_thread: dict[int, list] = defaultdict(list)
    for c in kids.get(span.id, ()):
        if c.name not in idle:
            per_thread[c.thread].append((c.start, c.end))
    return selfs[span.id] + sum(union_length(v) for v in per_thread.values())


def layer_metrics(spans, n_compress: int, n_decompress: int) -> dict:
    """Per-layer figures from one traced phase.

    ``n_compress`` / ``n_decompress`` are the workload's top-level
    operations in the phase; per-op figures divide by them, so a layer
    the workload bypasses reads 0.
    """
    spans = list(spans)
    selfs = self_times(spans)
    kids = children_of(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for sp in spans:
        by_name[sp.name].append(sp)

    def self_sum(name) -> int:
        return sum(selfs[s.id] for s in by_name.get(name, ()))

    def dur_sum(name) -> int:
        return sum(s.duration for s in by_name.get(name, ()))

    def per(total_ns, n, scale=1e6) -> float:
        return total_ns / scale / n if n else 0.0

    n_ops = n_compress + n_decompress
    s1, s2 = dur_sum("native.stage1"), dur_sum("native.stage2")
    core = by_name.get("core.compress", []) + by_name.get(
        "core.decompress", [])
    meta = [s for name, group in by_name.items()
            if name.startswith("meta.") and name != "meta.wait"
            for s in group]
    meta_compress = [s for s in meta if s.name.endswith(".compress")]
    pipelined_ids = {s.id for s in by_name.get("meta.pipelined.compress", ())}
    waits = [s for s in by_name.get("meta.wait", ())
             if s.parent in pipelined_ids]
    meta_wall = sum(s.duration for s in meta_compress)
    meta_busy = sum(busy_time(s, kids, selfs) for s in meta_compress)
    encode = by_name.get("encoders.encode", [])
    decode = by_name.get("encoders.decode", [])
    return {
        "native.stage1_ms": per(self_sum("native.stage1"), n_compress),
        "native.stage2_ms": per(self_sum("native.stage2"), n_compress),
        "native.decompress_ms": per(self_sum("native.decompress"),
                                    n_decompress),
        "native.stage2_share": s2 / (s1 + s2) if s1 + s2 else 0.0,
        "encoders.encode_ms": per(dur_sum("encoders.encode"), n_compress),
        "encoders.decode_ms": per(dur_sum("encoders.decode"), n_decompress),
        "encoders.calls_per_op": (len(encode) + len(decode)) / n_ops
        if n_ops else 0.0,
        "meta.self_ms": per(sum(selfs[s.id] for s in meta), n_ops),
        "meta.stage2_wait_ms": per(sum(s.duration for s in waits),
                                   len(pipelined_ids)),
        "meta.overlap": meta_busy / meta_wall if meta_wall else 0.0,
        "core.wrapper_self_us": per(sum(selfs[s.id] for s in core),
                                    len(core), scale=1e3),
    }
