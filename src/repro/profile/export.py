"""Profile artifact I/O and renderers: JSON, collapsed stacks, tables.

Three consumers, matching how attribution data actually gets used:

* :func:`write_profile` / :func:`load_profile` — the durable JSON
  artifact ``pressio bench --profile`` stores next to ``BENCH_*.json``
  so regressions can be attributed *after the fact*;
* :func:`write_collapsed` — Brendan Gregg's collapsed-stack format
  (``frame;frame;frame <weight>`` per line), consumed by
  ``flamegraph.pl`` / speedscope / inferno, weights in microseconds.
  Deterministic stage rows contribute their exclusive time; sampled
  Python stacks subdivide their enclosing stage's time;
* :func:`format_stage_table` / :func:`format_memory_report` — the
  human-readable report ``pressio profile`` prints.

The Chrome-trace exporter is *not* duplicated here: a profiling run
holds a real :class:`~repro.trace.context.TraceContext`, so the CLI
reuses :func:`repro.trace.export.write_chrome_trace` directly on it.
"""

from __future__ import annotations

import json
import os
import subprocess
from typing import Any, TextIO

from ..trace.export import _open_maybe
from .stage import SCHEMA, UNTRACKED

__all__ = ["git_revision", "write_profile", "load_profile",
           "write_collapsed", "format_stage_table", "format_memory_report",
           "format_sample_report"]


def git_revision(cwd: str | None = None) -> str | None:
    """The current git commit SHA, or None outside a checkout.

    Both the bench artifact header and every profile carry this so the
    two are joinable: "which commit produced the profile that explains
    this regression" is a lookup, not archaeology.  The default anchors
    to the installed ``repro`` package, not the process cwd — the
    provenance question is about the *code*, and stays answerable when
    the CLI runs from a scratch directory.
    """
    if cwd is None:
        cwd = os.path.dirname(os.path.abspath(__file__))
    try:
        # metadata lookup, not pipeline work: git emits no spans, so
        # forwarding trace context would only leak env into a tool call
        out = subprocess.run(  # pressio-lint: disable=OB001
            ["git", "rev-parse", "HEAD"], cwd=cwd, capture_output=True,
            text=True, timeout=5)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


# ---------------------------------------------------------------------------
# artifact I/O
# ---------------------------------------------------------------------------

def write_profile(profile: dict[str, Any], path: str) -> str:
    if profile.get("schema") != SCHEMA:
        raise ValueError(f"not a profile artifact: schema "
                         f"{profile.get('schema')!r}")
    with open(path, "w") as fh:
        json.dump(profile, fh, indent=2)
        fh.write("\n")
    return path


def load_profile(path: str) -> dict[str, Any]:
    with open(path) as fh:
        profile = json.load(fh)
    if profile.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: unsupported profile schema {profile.get('schema')!r}")
    return profile


# ---------------------------------------------------------------------------
# collapsed-stack flamegraph
# ---------------------------------------------------------------------------

def write_collapsed(profile: dict[str, Any],
                    path_or_file: str | TextIO) -> int:
    """Write collapsed stacks; returns the number of lines.

    Every stage row becomes ``a;b;c <exclusive_us>``.  When the run
    sampled Python stacks, each sampled stack becomes
    ``<stage path>;py:<frame>;... <estimated_us>`` and its estimate is
    subtracted from the bare stage line (floored at zero), so stage
    totals are preserved while hot helpers subdivide them.
    """
    stage_us = {
        row["path"]: max(0, round(row["exclusive_ns"] / 1e3))
        for row in profile.get("stages", ())
    }
    sample_lines: list[tuple[str, int]] = []
    samples = profile.get("samples") or {}
    interval_us = float(samples.get("interval_s", 0.0)) * 1e6
    for stack in samples.get("stacks", ()):
        stage = stack.get("stage") or UNTRACKED
        est_us = round(stack["count"] * interval_us)
        if est_us <= 0:
            continue
        # frames are innermost-first; flamegraph wants root-first
        frames = [f"py:{f}" for f in reversed(stack["frames"])]
        sample_lines.append((";".join([stage.replace("/", ";")] + frames),
                             est_us))
        if stage in stage_us:
            stage_us[stage] = max(0, stage_us[stage] - est_us)

    fh, owned = _open_maybe(path_or_file)
    lines = 0
    try:
        for path, us in stage_us.items():
            if us <= 0:
                continue
            fh.write(f"{path.replace('/', ';')} {us}\n")
            lines += 1
        for path, us in sample_lines:
            fh.write(f"{path} {us}\n")
            lines += 1
    finally:
        if owned:
            fh.close()
    return lines


# ---------------------------------------------------------------------------
# text reports
# ---------------------------------------------------------------------------

def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if abs(n) < 1024.0 or unit == "GB":
            return f"{n:.1f}{unit}" if unit != "B" else f"{n:.0f}B"
        n /= 1024.0
    return f"{n:.1f}GB"  # pragma: no cover - unreachable


def format_stage_table(profile: dict[str, Any]) -> str:
    """The per-stage attribution table, exclusive-time-sorted."""
    wall_ms = (profile.get("wall_ns") or 0) / 1e6
    header = (f"{'stage':<44} {'calls':>6} {'incl ms':>9} {'excl ms':>9} "
              f"{'excl %':>7} {'MB/s':>9} {'alloc':>10}")
    lines = [
        f"profile: {profile.get('label', '?')}  wall {wall_ms:.3f}ms  "
        f"git {str(profile.get('git_sha'))[:12]}",
        header, "-" * len(header),
    ]
    total_excl = 0
    for row in profile.get("stages", ()):
        total_excl += row["exclusive_ns"]
        excl_ms = row["exclusive_ns"] / 1e6
        pct = (100.0 * row["exclusive_ns"] / profile["wall_ns"]
               if profile.get("wall_ns") else 0.0)
        mbps = row.get("bytes_per_s", 0.0) / 1e6
        alloc = _fmt_bytes(row.get("alloc_peak_growth_bytes", 0))
        lines.append(
            f"{row['path']:<44} {row['calls']:>6} "
            f"{row['inclusive_ns'] / 1e6:>9.3f} {excl_ms:>9.3f} "
            f"{pct:>6.1f}% {mbps:>9.2f} {alloc:>10}")
    lines.append("-" * len(header))
    cov = (100.0 * total_excl / profile["wall_ns"]
           if profile.get("wall_ns") else 0.0)
    lines.append(f"{'sum(exclusive)':<44} {'':>6} {'':>9} "
                 f"{total_excl / 1e6:>9.3f} {cov:>6.1f}%")
    if profile.get("invariant_violations"):
        lines.append("")
        lines.append("WARNING: exclusive-time invariant violations:")
        for v in profile["invariant_violations"]:
            lines.append(f"  {v}")
    return "\n".join(lines)


def format_memory_report(profile: dict[str, Any]) -> str:
    """The tracemalloc attribution section of the report."""
    alloc = profile.get("allocation") or {}
    if not alloc.get("tracked"):
        return "allocation: not tracked"
    lines = [
        f"allocation: peak {_fmt_bytes(alloc.get('peak_bytes', 0))}, "
        f"final {_fmt_bytes(alloc.get('current_bytes', 0))}",
        "top stages by high-water growth:",
    ]
    stages = sorted(profile.get("stages", ()),
                    key=lambda r: -r.get("alloc_peak_growth_bytes", 0))
    for row in stages[:8]:
        growth = row.get("alloc_peak_growth_bytes", 0)
        if growth <= 0:
            continue
        lines.append(
            f"  {row['path']:<44} +{_fmt_bytes(growth):>10}  "
            f"(net {_fmt_bytes(row.get('alloc_net_bytes', 0))})")
    lines.append("top allocation sites:")
    for site in alloc.get("top_sites", ())[:8]:
        lines.append(f"  {site['site']:<56} {_fmt_bytes(site['size_bytes']):>10} "
                     f"in {site['count']} blocks")
    return "\n".join(lines)


def format_sample_report(profile: dict[str, Any], top: int = 10) -> str:
    """The sampled-stack section: hottest Python frames per stage."""
    samples = profile.get("samples") or {}
    if not samples.get("count"):
        return "samples: none collected (run shorter than the interval?)"
    lines = [
        f"samples: {samples['count']} at "
        f"{samples.get('interval_s', 0) * 1e3:g}ms "
        f"({samples.get('unattributed', 0)} outside span coverage)",
    ]
    for stack in samples.get("stacks", ())[:top]:
        where = stack["frames"][0] if stack["frames"] else "?"
        stage = stack.get("stage") or UNTRACKED
        lines.append(f"  {stack['count']:>5}x  {stage:<40} {where}")
    return "\n".join(lines)
