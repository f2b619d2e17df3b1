"""``pressio bench --serve``: served vs in-process overhead comparison.

The paper (Section V(d)) reports a 17.5% overhead for its external
process launch strategy — every request pays a spawn plus two payload
copies.  The daemon's zero-copy shared-memory handoff is supposed to
beat that, and this module proves it with a committed artifact: for
each quick-grid configuration it round-trips the same array both
in-process (plugin called directly) and through a live local daemon,
and reports the served overhead as a percent of the in-process time.

Methodology notes, learned the hard way:

* **Interleaved pairs, paired statistics** — machine noise here is of
  the same order as the effect being measured, so each iteration runs
  one in-process and one served round trip back to back and the
  reported overhead is the *median of the per-pair ratios*.  A slow
  scheduler or thermal epoch hits both halves of its pairs, so it
  cancels out of the ratio instead of biasing whichever side it
  happened to land on.  The order within a pair alternates (local,
  shm, inline on even pairs; the reverse on odd ones), so neither side
  always runs on the caches the other just warmed.
* **Zero-copy end to end** — the served side writes the dataset into
  the client's shared-memory input segment once (``input_array``) and
  reads results with ``copy=False``; requests and replies then carry
  only descriptors, which is exactly the hot path the overhead claim
  is about.
* **Cache bypass** — the daemon's artifact cache would turn repeat
  requests into lookups and make the comparison meaningless, so every
  served request carries ``cache="bypass"``.
* **Shared memory on** — the client reuses two segments across all
  pairs, so the hot path carries only descriptors over the socket.
  This is the configuration the overhead claim is about; the inline
  path is measured too, as a secondary column, to quantify what the
  shm handoff buys.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from datetime import datetime, timezone
from typing import Any, Callable

from ..obs.bench import (
    BOUND_KEYS,
    QUICK_BOUNDS,
    QUICK_COMPRESSORS,
    QUICK_DATASETS,
    QUICK_DIMS,
    _make_dataset,
    _percentiles,
)

__all__ = [
    "PAPER_BASELINE_PCT",
    "SERVE_SCHEMA",
    "run_serve_compare",
    "write_serve_artifact",
    "format_serve_report",
]

#: Section V(d): spawn + copy overhead of the paper's external strategy.
PAPER_BASELINE_PCT = 17.5

SERVE_SCHEMA = "pressio-serve-bench/1"

DEFAULT_PAIRS = 30


def _local_roundtrip_s(plugin, data, template) -> float:
    t0 = time.perf_counter()
    compressed = plugin.compress(data)
    plugin.decompress(compressed, template)
    return time.perf_counter() - t0


def _served_roundtrip_s(client, arr, compressor, options) -> float:
    t0 = time.perf_counter()
    client.roundtrip(arr, compressor, options, cache="bypass", copy=False)
    return time.perf_counter() - t0


def _paired_overhead_pct(local_s: list[float],
                         served_s: list[float]) -> float:
    """Median of per-pair overhead ratios (drift-cancelling)."""
    ratios = [(s - l) / l for l, s in zip(local_s, served_s) if l > 0]
    return statistics.median(ratios) * 100.0 if ratios else 0.0


def run_serve_compare(compressors: tuple[str, ...] = QUICK_COMPRESSORS,
                      datasets: tuple[str, ...] = QUICK_DATASETS,
                      bounds: tuple[float, ...] = QUICK_BOUNDS,
                      dims: tuple[int, ...] = QUICK_DIMS,
                      pairs: int = DEFAULT_PAIRS,
                      workers: int = 2,
                      measure_inline: bool = True,
                      progress: Callable[[str], None] | None = None,
                      ) -> list[dict[str, Any]]:
    """Interleaved served-vs-in-process comparison; one row per config."""
    from ..core.data import PressioData
    from ..core.library import Pressio
    from .client import ServeClient
    from .daemon import ServeServer

    library = Pressio()
    arrays = {name: _make_dataset(name, dims) for name in datasets}
    rows: list[dict[str, Any]] = []
    with ServeServer(port=0, workers=workers) as server:
        shm_client = ServeClient(port=server.port, use_shm=True,
                                 uds=server.uds_path)
        inline_client = (ServeClient(port=server.port, use_shm=False)
                         if measure_inline else None)
        try:
            for compressor in compressors:
                bound_key = BOUND_KEYS.get(compressor)
                for dataset in datasets:
                    arr = arrays[dataset]
                    value_range = float(arr.max() - arr.min())
                    for rel_bound in bounds:
                        options: dict[str, Any] = {}
                        if bound_key is not None:
                            options[bound_key] = rel_bound * value_range
                        plugin = library.get_compressor(compressor)
                        if plugin is None:
                            raise ValueError(library.error_msg())
                        if options and plugin.set_options(options) != 0:
                            raise ValueError(plugin.error_msg())
                        data = PressioData.from_numpy(arr, copy=False)
                        template = PressioData.empty(data.dtype, data.dims)
                        # write the dataset straight into the client's
                        # input segment: the request then carries only
                        # descriptors — no payload copy on either side
                        shm_arr = shm_client.input_array(arr.shape,
                                                         arr.dtype)
                        shm_arr[:] = arr

                        # untimed warm-ups prime the plugin, the shm
                        # segments, and the server's wrap/view caches
                        _local_roundtrip_s(plugin, data, template)
                        _served_roundtrip_s(shm_client, shm_arr,
                                            compressor, options)
                        if inline_client is not None:
                            _served_roundtrip_s(inline_client, arr,
                                                compressor, options)

                        local_s: list[float] = []
                        served_s: list[float] = []
                        inline_s: list[float] = []
                        legs = [
                            (local_s, lambda: _local_roundtrip_s(
                                plugin, data, template)),
                            (served_s, lambda: _served_roundtrip_s(
                                shm_client, shm_arr, compressor, options)),
                        ]
                        if inline_client is not None:
                            legs.append((inline_s, lambda: _served_roundtrip_s(
                                inline_client, arr, compressor, options)))
                        for i in range(pairs):
                            for samples, leg in (legs if i % 2 == 0
                                                 else legs[::-1]):
                                samples.append(leg())
                        row = {
                            "compressor": compressor,
                            "dataset": dataset,
                            "bound": rel_bound,
                            "dims": list(arr.shape),
                            "pairs": pairs,
                            "local_ms": _percentiles(
                                [s * 1e3 for s in local_s]),
                            "served_shm_ms": _percentiles(
                                [s * 1e3 for s in served_s]),
                            "overhead_pct": _paired_overhead_pct(
                                local_s, served_s),
                        }
                        if inline_s:
                            row["served_inline_ms"] = _percentiles(
                                [s * 1e3 for s in inline_s])
                            row["inline_overhead_pct"] = (
                                _paired_overhead_pct(local_s, inline_s))
                        rows.append(row)
                        if progress is not None:
                            progress(
                                f"{compressor:<8} {dataset:<12} "
                                f"bound={rel_bound:g} "
                                f"local {row['local_ms']['median']:.3f}ms "
                                f"served "
                                f"{row['served_shm_ms']['median']:.3f}ms "
                                f"overhead {row['overhead_pct']:+.1f}%")
        finally:
            shm_client.close()
            if inline_client is not None:
                inline_client.close()
    return rows


def summarize(rows: list[dict[str, Any]],
              baseline_pct: float = PAPER_BASELINE_PCT) -> dict[str, Any]:
    overheads = [row["overhead_pct"] for row in rows]
    worst = max(overheads) if overheads else 0.0
    med = statistics.median(overheads) if overheads else 0.0
    summary: dict[str, Any] = {
        "paper_baseline_pct": baseline_pct,
        "median_overhead_pct": med,
        "worst_overhead_pct": worst,
        "beats_baseline": worst < baseline_pct,
    }
    inline = [row["inline_overhead_pct"] for row in rows
              if "inline_overhead_pct" in row]
    if inline:
        summary["inline_median_overhead_pct"] = statistics.median(inline)
    return summary


def write_serve_artifact(rows: list[dict[str, Any]], output_path: str,
                         baseline_pct: float = PAPER_BASELINE_PCT,
                         timestamp: datetime | None = None) -> str:
    """Write the committed comparison artifact; returns the path."""
    import platform

    from ..profile.export import git_revision

    stamp = timestamp or datetime.now(timezone.utc)
    artifact = {
        "schema": SERVE_SCHEMA,
        "created_at": stamp.isoformat(),
        "host": platform.node(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "git_sha": git_revision(),
        "summary": summarize(rows, baseline_pct),
        "configs": rows,
    }
    parent = os.path.dirname(output_path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(output_path, "w") as fh:
        json.dump(artifact, fh, indent=2)
        fh.write("\n")
    return output_path


def format_serve_report(rows: list[dict[str, Any]],
                        baseline_pct: float = PAPER_BASELINE_PCT) -> str:
    summary = summarize(rows, baseline_pct)
    lines = [
        f"served round-trip overhead vs in-process "
        f"(paper external-launch baseline {baseline_pct:.1f}%):",
    ]
    for row in rows:
        inline = row.get("inline_overhead_pct")
        inline_txt = (f"  inline {inline:+7.1f}%"
                      if inline is not None else "")
        lines.append(
            f"  {row['compressor']:<8} {row['dataset']:<12} "
            f"bound={row['bound']:<8g} shm {row['overhead_pct']:+7.1f}%"
            f"{inline_txt}")
    lines.append(
        f"median {summary['median_overhead_pct']:+.1f}%  "
        f"worst {summary['worst_overhead_pct']:+.1f}%  -> "
        + ("BEATS the paper baseline"
           if summary["beats_baseline"]
           else "DOES NOT beat the paper baseline"))
    return "\n".join(lines)


def run_serve_bench(args) -> int:
    """Back end for ``pressio bench --serve`` (args from the bench CLI)."""
    compressors = (tuple(args.compressors.split(","))
                   if args.compressors else QUICK_COMPRESSORS)
    datasets = (tuple(args.datasets.split(","))
                if args.datasets else QUICK_DATASETS)
    bounds = (tuple(float(b) for b in args.bounds.split(","))
              if args.bounds else QUICK_BOUNDS)
    dims = (tuple(int(d) for d in args.dims.split(","))
            if args.dims else QUICK_DIMS)
    pairs = args.reps or DEFAULT_PAIRS
    print(f"serve comparison: {len(compressors)} compressor(s) x "
          f"{len(datasets)} dataset(s) x {len(bounds)} bound(s), "
          f"{pairs} interleaved pairs, dims "
          f"{'x'.join(str(d) for d in dims)}")
    rows = run_serve_compare(compressors, datasets, bounds, dims,
                             pairs=pairs, progress=print)
    path = write_serve_artifact(rows, args.serve_output)
    print(f"wrote {path}")
    print(format_serve_report(rows))
    summary = summarize(rows)
    if args.fail_on_regress and not summary["beats_baseline"]:
        return 1
    return 0
