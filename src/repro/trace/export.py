"""Exporters and reports for a :class:`~repro.trace.context.TraceContext`.

Three consumers, matching how per-stage timing data actually gets used:

* :func:`write_jsonl` — an append-friendly event log (one JSON object
  per line: spans, then counters and histograms) for offline analysis;
* :func:`write_chrome_trace` — the Trace Event Format consumed by
  ``chrome://tracing`` / Perfetto, with one track per thread so the
  parallel meta-compressors' worker fan-out is visible on a timeline;
* :func:`aggregate` / :func:`format_report` — an in-process roll-up of
  per-plugin self time, call counts, and throughput, the numbers a
  perf PR quotes before and after.

:func:`render_tree` pretty-prints the span tree for the ``pressio
trace`` CLI subcommand.  It, :func:`aggregate` and the stage profiler
read their per-span figures from one :class:`_SpanIndex`.
"""

from __future__ import annotations

import json
from typing import Any, Callable, TextIO

from .context import Span, TraceContext

__all__ = [
    "write_jsonl",
    "write_chrome_trace",
    "aggregate",
    "format_report",
    "render_tree",
]


def _open_maybe(path_or_file: str | TextIO):
    if hasattr(path_or_file, "write"):
        return path_or_file, False
    return open(path_or_file, "w"), True


def write_jsonl(ctx: TraceContext, path_or_file: str | TextIO) -> int:
    """Write one JSON object per line; returns the number of lines."""
    fh, owned = _open_maybe(path_or_file)
    lines = 0
    try:
        for sp in ctx.spans():
            fh.write(json.dumps({"type": "span", **sp.to_dict()}) + "\n")
            lines += 1
        for name, value in sorted(ctx.counters().items()):
            fh.write(json.dumps(
                {"type": "counter", "name": name, "value": value}) + "\n")
            lines += 1
        for name, hist in sorted(ctx.histograms().items()):
            fh.write(json.dumps(
                {"type": "histogram", "name": name, **hist.to_dict()}) + "\n")
            lines += 1
    finally:
        if owned:
            fh.close()
    return lines


def write_chrome_trace(ctx: TraceContext, path_or_file: str | TextIO,
                       process_name: str = "pressio") -> int:
    """Write Chrome Trace Event Format JSON; returns the event count.

    Spans become complete ("ph": "X") events whose ``tid`` is the OS
    thread id, so each worker thread renders as its own track.
    """
    events: list[dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
        "args": {"name": process_name},
    }]
    threads_seen: set[int] = set()
    for sp in ctx.spans():
        if sp.thread_id not in threads_seen:
            threads_seen.add(sp.thread_id)
            events.append({
                "name": "thread_name", "ph": "M", "pid": 0,
                "tid": sp.thread_id, "args": {"name": sp.thread_name},
            })
        events.append({
            "name": sp.name,
            "cat": str(sp.attrs.get("plugin", "trace")),
            "ph": "X",
            "pid": 0,
            "tid": sp.thread_id,
            "ts": sp.start_ns / 1e3,  # microseconds
            "dur": sp.duration_ns / 1e3,
            "args": {
                "span_id": sp.span_id,
                "parent_id": sp.parent_id,
                "status": sp.status,
                **{k: v for k, v in sp.to_dict()["attrs"].items()},
            },
        })
    for name, value in sorted(ctx.counters().items()):
        events.append({
            "name": name, "ph": "C", "pid": 0, "tid": 0, "ts": 0,
            "args": {"value": value},
        })
    fh, owned = _open_maybe(path_or_file)
    try:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
    finally:
        if owned:
            fh.close()
    return len(events)


class _SpanIndex:
    """A span list's parent -> children index, built once, and the two
    per-span rules every report and gauge reads (docs/PROFILING.md,
    "Self time and bytes"):

    * self time is the duration minus same-thread direct children,
      floored at 0;
    * bytes count the uncompressed side (the input of a compress, the
      output of a decompress); throughput is bytes over inclusive time.
    """

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {sp.span_id: sp for sp in spans}
        self.children: dict[int | None, list[Span]] = {}
        for sp in spans:
            self.children.setdefault(sp.parent_id, []).append(sp)

    def child_ns(self, sp: Span) -> int:
        """Summed duration of ``sp``'s same-thread direct children."""
        return sum(c.duration_ns for c in self.children.get(sp.span_id, ())
                   if c.thread_id == sp.thread_id)

    def self_ns(self, sp: Span) -> int:
        return max(0, sp.duration_ns - self.child_ns(sp))

    def roots(self) -> list[Span]:
        """Spans with no parent, or whose parent is not in the list."""
        return [sp for sp in self.spans
                if sp.parent_id is None or sp.parent_id not in self.by_id]

    def rows(self, key: Callable[[Span], str]) -> dict[str, dict[str, Any]]:
        """Per-span figures summed by ``key(span)``, plus throughput.

        Allocation columns sum the ``_mem0``/``_mem1`` (current, peak)
        stamps a profiling context puts on each span.
        """
        rows: dict[str, dict[str, Any]] = {}
        for sp in self.spans:
            row = rows.setdefault(key(sp), {
                "calls": 0, "inclusive_ns": 0, "exclusive_ns": 0,
                "bytes": 0, "bytes_in": 0, "bytes_out": 0, "errors": 0,
                "alloc_net_bytes": 0, "alloc_peak_growth_bytes": 0,
            })
            row["calls"] += 1
            row["inclusive_ns"] += sp.duration_ns
            row["exclusive_ns"] += self.self_ns(sp)
            row["bytes"] += _uncompressed_bytes(sp)
            row["bytes_in"] += int(sp.attrs.get("input_bytes") or 0)
            row["bytes_out"] += int(sp.attrs.get("output_bytes") or 0)
            if sp.status.startswith("error"):
                row["errors"] += 1
            mem0, mem1 = sp.attrs.get("_mem0"), sp.attrs.get("_mem1")
            if mem0 is not None and mem1 is not None:
                row["alloc_net_bytes"] += int(mem1[0]) - int(mem0[0])
                row["alloc_peak_growth_bytes"] += max(
                    0, int(mem1[1]) - int(mem0[1]))
        for row in rows.values():
            secs = row["inclusive_ns"] / 1e9
            row["bytes_per_s"] = row["bytes"] / secs if secs > 0 else 0.0
        return rows


def _uncompressed_bytes(sp: Span) -> int:
    if sp.name == "decompress":
        nbytes = (sp.attrs.get("output_bytes")  # errored: no output
                  or sp.attrs.get("input_bytes"))
    else:
        nbytes = sp.attrs.get("input_bytes")
    return int(nbytes or 0)


def aggregate(ctx: TraceContext) -> dict[str, dict[str, Any]]:
    """Per-plugin roll-up: calls, total/self wall time, bytes, bytes/s.

    Spans without a ``plugin`` attribute are grouped under their span
    name, so stage spans (``transpose:forward``, ``opt:evaluate``) get
    their own rows.  ``self_ms``, ``bytes`` and ``bytes_per_s``
    follow :class:`_SpanIndex`'s rules, as the ``time`` metrics
    plugin's ``time:*_bytes_per_s`` keys do.
    """
    rows = _SpanIndex(ctx.spans()).rows(
        lambda sp: str(sp.attrs.get("plugin", sp.name)))
    return {key: {"calls": row["calls"],
                  "total_ms": row["inclusive_ns"] / 1e6,
                  "self_ms": row["exclusive_ns"] / 1e6,
                  "bytes": row["bytes"],
                  "errors": row["errors"],
                  "bytes_per_s": row["bytes_per_s"]}
            for key, row in rows.items()}


def format_report(ctx: TraceContext) -> str:
    """Human-readable aggregate table plus counters and histograms."""
    rows = aggregate(ctx)
    header = (f"{'plugin/stage':<28} {'calls':>6} {'total ms':>10} "
              f"{'self ms':>10} {'MB/s':>10}")
    lines = [header, "-" * len(header)]
    for key in sorted(rows, key=lambda k: -rows[k]["self_ms"]):
        row = rows[key]
        mbps = row["bytes_per_s"] / 1e6
        lines.append(f"{key:<28} {row['calls']:>6} {row['total_ms']:>10.3f} "
                     f"{row['self_ms']:>10.3f} {mbps:>10.2f}")
    counters = ctx.counters()
    if counters:
        lines.append("")
        lines.append("counters:")
        for name, value in sorted(counters.items()):
            lines.append(f"  {name} = {value:g}")
    histograms = ctx.histograms()
    if histograms:
        lines.append("")
        lines.append("histograms:")
        for name, hist in sorted(histograms.items()):
            lines.append(f"  {name}: n={hist.count} mean={hist.mean:.3g} "
                         f"min={hist.min:.3g} max={hist.max:.3g}")
    return "\n".join(lines)


def render_tree(ctx: TraceContext) -> str:
    """ASCII rendering of the span forest, children indented under parents."""
    index = _SpanIndex(ctx.spans())
    lines: list[str] = []

    def walk(sp: Span, depth: int) -> None:
        label = str(sp.attrs.get("plugin", ""))
        suffix = f" [{label}]" if label and label != sp.name else ""
        thread = (f" thread={sp.thread_name}"
                  if sp.parent_id is not None else "")
        lines.append(f"{'  ' * depth}{sp.name}{suffix} "
                     f"{sp.duration_ms:.3f}ms"
                     f" (self {index.self_ns(sp) / 1e6:.3f}ms)"
                     f"{thread}")
        for child in index.children.get(sp.span_id, []):
            walk(child, depth + 1)

    # roots: no parent, or parent fell outside this context's records
    for sp in index.roots():
        walk(sp, 0)
    return "\n".join(lines)
