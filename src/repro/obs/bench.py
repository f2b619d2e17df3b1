"""``pressio bench``: a recurring benchmark grid with regression checks.

The paper's evaluation is a grid — compressor x dataset x error bound —
measured with the monotonic clock and summarized by medians (Fig. 3).
This module turns that one-off experiment shape into a *recurring*
artifact so performance has a trajectory, not a single data point:

* :func:`run_grid` rounds-trips every configuration through the plugin
  API, recording per-rep compress/decompress wall times, their
  median/p25/p75/p90, and the compression ratio;
* :func:`write_artifact` emits a timestamped ``BENCH_<date>.json``;
* :func:`compare` diffs two artifacts configuration-by-configuration
  and flags median-time regressions beyond a percentage threshold (and
  compression-ratio losses beyond the same threshold);
* :func:`run_bench` is the CLI: it benches, writes the artifact, finds
  the previous artifact (or an explicit ``--baseline``), and prints a
  per-configuration verdict table;
* :func:`paired` is the program's one matched-pair timing harness (the
  Fig. 3 method): ``pressio bench --serve``, the Fig. 3 benchmark and
  the overhead tests time their arms through it.

``--profile`` additionally captures one stage profile per configuration
(:mod:`repro.profile`) into ``<output-dir>/profiles/`` — profile JSON
plus collapsed-stack flamegraph — and records each profile's relative
path on its result row.  When the regression gate fires, the verdict is
followed by a stage-attribution table naming the stages that own the
delta (a full profile diff when the baseline row carries a profile too,
the current run's top stages otherwise).

Every artifact header records the git SHA and the hot-path sentinel
state at run time, so bench runs and profiles are joinable by commit
and a run accidentally taken with an observer active is visibly tainted.

CI runs ``pressio bench --quick`` nightly against the committed
baseline and fails on >15 % median regression, so a hot-path PR that
slows a codec shows up the next morning instead of at the next paper.
"""

from __future__ import annotations

import argparse
import gc
import glob
import json
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from string import ascii_lowercase
from typing import Any, Callable

import numpy as np

from . import quality as _quality

__all__ = ["run_grid", "write_artifact", "load_artifact",
           "find_previous_artifact", "compare", "format_comparison",
           "build_bench_parser", "run_bench", "paired", "PairedRun"]

#: compressor plugin -> the option key its absolute bound is set through
#: (same mapping the Fig. 3 harness uses).
BOUND_KEYS = {
    "sz": "pressio:abs",
    "zfp": "zfp:accuracy",
    "mgard": "mgard:tolerance",
}

DEFAULT_COMPRESSORS = ("sz", "zfp", "mgard")
DEFAULT_DATASETS = ("nyx", "scale_letkf", "hacc")
DEFAULT_BOUNDS = (1e-4, 1e-3, 1e-2)
DEFAULT_DIMS = (32, 32, 32)
DEFAULT_REPS = 7

QUICK_COMPRESSORS = ("sz", "zfp")
QUICK_DATASETS = ("nyx",)
QUICK_BOUNDS = (1e-4, 1e-2)
QUICK_DIMS = (24, 24, 24)
QUICK_REPS = 3

SCHEMA = "pressio-bench/1"


def _percentiles(samples: list[float]) -> dict[str, float]:
    arr = np.asarray(samples, dtype=float)
    return {
        "median": float(np.median(arr)),
        "p25": float(np.percentile(arr, 25)),
        "p75": float(np.percentile(arr, 75)),
        "p90": float(np.percentile(arr, 90)),
        "min": float(arr.min()),
        "max": float(arr.max()),
    }


@dataclass
class PairedRun:
    """What :func:`paired` measured: one sample list per arm, in argument
    order, and the arm order of each pair (``"ab"``, ``"ba"``, ...)."""

    samples: tuple[list[float], ...]
    order: list[str] = field(default_factory=list)

    def median_ratio(self, arm: int = 1, base: int = 0) -> float:
        """Median of the per-pair ``arm / base`` time ratios.

        A slow scheduler epoch hits both halves of a pair, so it cancels
        out of that pair's ratio.  Pairs whose base time is zero carry
        no ratio and are dropped; with none left the ratio is 1.0.
        """
        ratios = [a / b for b, a in zip(self.samples[base],
                                        self.samples[arm]) if b > 0]
        return statistics.median(ratios) if ratios else 1.0

    def overhead_pct(self, arm: int = 1, base: int = 0) -> float:
        return (self.median_ratio(arm, base) - 1.0) * 100.0


def paired(*arms: Callable[[], object], pairs: int,
           clock: Callable[[], float] = time.perf_counter) -> PairedRun:
    """Time each of ``arms`` once per pair, ``pairs`` times over.

    Arms run in argument order on even pairs and in reverse order on odd
    ones, so neither side always runs on the caches and allocator state
    the other just warmed.  The collector is off while pairs run (its
    pauses would land on whichever arm triggered them) and is left as it
    was found.  Callers do their own warm-up before calling this.
    """
    samples: tuple[list[float], ...] = tuple([] for _ in arms)
    order: list[str] = []
    forward = list(range(len(arms)))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for i in range(pairs):
            sequence = forward if i % 2 == 0 else forward[::-1]
            for k in sequence:
                t0 = clock()
                arms[k]()
                samples[k].append(clock() - t0)
            order.append("".join(ascii_lowercase[k] for k in sequence))
    finally:
        if was_enabled:
            gc.enable()
    return PairedRun(samples, order)


def _make_dataset(name: str, dims: tuple[int, ...]) -> np.ndarray:
    from ..datasets import DATASET_GENERATORS

    gen = DATASET_GENERATORS.get(name)
    if gen is None:
        raise ValueError(f"unknown dataset {name!r}; "
                         f"known: {sorted(DATASET_GENERATORS)}")
    if name == "hacc":  # 1-D particle data sized by element count
        return np.asarray(gen(int(np.prod(dims))))
    return np.asarray(gen(dims))


def run_grid(compressors: tuple[str, ...] = DEFAULT_COMPRESSORS,
             datasets: tuple[str, ...] = DEFAULT_DATASETS,
             bounds: tuple[float, ...] = DEFAULT_BOUNDS,
             dims: tuple[int, ...] = DEFAULT_DIMS,
             reps: int = DEFAULT_REPS,
             progress: Callable[[str], None] | None = None,
             profile_dir: str | None = None,
             ) -> list[dict[str, Any]]:
    """Round-trip the full grid; returns one result row per configuration.

    Bounds are value-range-relative (multiplied by each dataset's value
    range before being handed to the plugin), matching the paper's
    methodology, so one grid spec is meaningful across datasets.

    With ``profile_dir`` set, each configuration additionally runs one
    *profiled* round trip after its timed reps (so profiling overhead
    never contaminates the timings), writing ``PROFILE_<config>.json``
    plus a collapsed-stack ``.folded`` into that directory and recording
    the JSON's basename on the row under ``"profile"``.
    """
    from ..core.data import PressioData
    from ..core.library import Pressio

    library = Pressio()
    arrays = {name: _make_dataset(name, dims) for name in datasets}
    rows: list[dict[str, Any]] = []
    for compressor in compressors:
        bound_key = BOUND_KEYS.get(compressor)
        for dataset in datasets:
            arr = arrays[dataset]
            value_range = float(arr.max() - arr.min())
            for rel_bound in bounds:
                plugin = library.get_compressor(compressor)
                if plugin is None:
                    raise ValueError(library.error_msg())
                if bound_key is not None:
                    abs_bound = rel_bound * value_range
                    if plugin.set_options({bound_key: abs_bound}) != 0:
                        raise ValueError(plugin.error_msg())
                data = PressioData.from_numpy(arr, copy=False)
                template = PressioData.empty(data.dtype, data.dims)

                compress_s: list[float] = []
                decompress_s: list[float] = []
                compressed = plugin.compress(data)  # untimed warm-up
                decompressed = plugin.decompress(compressed, template)
                for _ in range(reps):
                    t0 = time.perf_counter()
                    compressed = plugin.compress(data)
                    t1 = time.perf_counter()
                    decompressed = plugin.decompress(compressed, template)
                    t2 = time.perf_counter()
                    compress_s.append(t1 - t0)
                    decompress_s.append(t2 - t1)
                ratio = data.size_in_bytes / compressed.size_in_bytes
                max_abs_error = float(np.max(np.abs(
                    arr.astype(np.float64)
                    - decompressed.to_numpy().astype(np.float64))))
                abs_bound = (rel_bound * value_range
                             if bound_key is not None else None)
                margin = (max_abs_error / abs_bound
                          if abs_bound else None)
                row = {
                    "compressor": compressor,
                    "dataset": dataset,
                    "bound": rel_bound,
                    "dims": list(arr.shape),
                    "reps": reps,
                    "compress_ms": _percentiles(
                        [s * 1e3 for s in compress_s]),
                    "decompress_ms": _percentiles(
                        [s * 1e3 for s in decompress_s]),
                    "compression_ratio": ratio,
                    "max_abs_error": max_abs_error,
                    "bound_margin": margin,
                }
                _quality.record_quality(
                    compressor, ratio, bound=abs_bound,
                    max_abs_error=max_abs_error,
                    fingerprint=_quality.dataset_fingerprint(arr),
                    config=_quality.config_label(
                        compressor, dataset, rel_bound, arr.shape))
                if profile_dir is not None:
                    row["profile"] = _profile_config(
                        plugin, data, template, compressor, dataset,
                        rel_bound, profile_dir)
                rows.append(row)
                if progress is not None:
                    progress(
                        f"{compressor:<8} {dataset:<12} bound={rel_bound:g} "
                        f"compress {row['compress_ms']['median']:.2f}ms "
                        f"decompress {row['decompress_ms']['median']:.2f}ms "
                        f"ratio {row['compression_ratio']:.1f}")
    return rows


def _profile_config(plugin: Any, data: Any, template: Any,
                    compressor: str, dataset: str, rel_bound: float,
                    profile_dir: str) -> str:
    """One profiled round trip for a bench configuration.

    Writes ``PROFILE_<compressor>_<dataset>_<bound>.json`` and the
    matching ``.folded`` flamegraph input into ``profile_dir``; returns
    the JSON's basename (rows stay relocatable with the artifact).
    """
    from ..profile import StageProfiler, write_collapsed, write_profile

    label = f"{compressor}_{dataset}_{rel_bound:g}"
    with StageProfiler(label) as prof:
        compressed = plugin.compress(data)
        plugin.decompress(compressed, template)
    profile = prof.result(meta={
        "compressor": compressor, "dataset": dataset, "bound": rel_bound,
    })
    os.makedirs(profile_dir, exist_ok=True)
    name = f"PROFILE_{label}.json"
    write_profile(profile, os.path.join(profile_dir, name))
    write_collapsed(profile, os.path.join(
        profile_dir, f"PROFILE_{label}.folded"))
    return name


def _print_attribution(regressions: list[dict[str, Any]],
                       output_dir: str, baseline_path: str | None,
                       top: int = 3) -> None:
    """Name the stages behind each regression, when profiles exist.

    Uses a full profile diff when the baseline row recorded a profile
    that is still on disk (next to the baseline artifact); otherwise
    falls back to the current profile's top exclusive stages, which at
    least localizes where the slow configuration spends its time.
    """
    from ..profile import attribute_regression, load_profile

    profile_dir = os.path.join(output_dir, "profiles")
    base_dir = (os.path.join(os.path.dirname(baseline_path), "profiles")
                if baseline_path else None)
    for entry in regressions:
        cfg = entry["config"]
        name = cfg.get("profile")
        if not name:
            continue
        try:
            current = load_profile(os.path.join(profile_dir, name))
        except (OSError, ValueError, json.JSONDecodeError):
            continue
        header = (f"{cfg['compressor']}/{cfg['dataset']}/"
                  f"bound={cfg['bound']:g}")
        base_name = entry.get("baseline_profile")
        baseline = None
        if base_dir and base_name:
            base_path = os.path.join(base_dir, base_name)
            # benching into the directory that holds the baseline
            # artifact overwrites its PROFILE_* files before the
            # comparison runs — the "baseline" profile on disk is then
            # this run's own, and diffing it would vacuously attribute
            # nothing.  Detect the collision and fall back.
            if os.path.abspath(base_path) != os.path.abspath(
                    os.path.join(profile_dir, name)):
                try:
                    baseline = load_profile(base_path)
                except (OSError, ValueError, json.JSONDecodeError):
                    baseline = None
        if baseline is not None:
            lines = attribute_regression(current, baseline, top=top)
            print(f"  {header}:")
            for line in lines:
                print(f"    {line}")
            if not lines:
                print("    (no stage exceeds the reporting floor; "
                      "the slowdown is outside the profiled stages)")
        else:
            stages = [r for r in current.get("stages", [])
                      if r.get("calls", 0) > 0][:top]
            wall = max(current.get("wall_ns", 0), 1)
            print(f"  {header} (no baseline profile; top stages):")
            for row in stages:
                pct = 100.0 * row["exclusive_ns"] / wall
                print(f"    {row['path']}: "
                      f"{row['exclusive_ns'] / 1e6:.2f}ms "
                      f"exclusive ({pct:.1f}% of wall)")


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def write_artifact(rows: list[dict[str, Any]], output_dir: str,
                   quick: bool = False,
                   timestamp: datetime | None = None) -> str:
    """Write ``BENCH_<UTC timestamp>.json``; returns the path."""
    from ..profile.export import git_revision
    from .. import _hot

    stamp = timestamp or datetime.now(timezone.utc)
    artifact = {
        "schema": SCHEMA,
        "created_at": stamp.isoformat(),
        "host": platform.node(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "git_sha": git_revision(),
        "hot_sentinel": bool(_hot.ANY),
        "quick": quick,
        "configs": rows,
    }
    os.makedirs(output_dir, exist_ok=True)
    path = os.path.join(
        output_dir, f"BENCH_{stamp.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w") as fh:
        json.dump(artifact, fh, indent=2)
        fh.write("\n")
    return path


def load_artifact(path: str) -> dict[str, Any]:
    with open(path) as fh:
        artifact = json.load(fh)
    if artifact.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: unsupported artifact schema {artifact.get('schema')!r}")
    return artifact


def find_previous_artifact(output_dir: str,
                           exclude: str | None = None) -> str | None:
    """Latest ``BENCH_*.json`` in ``output_dir`` other than ``exclude``."""
    candidates = sorted(glob.glob(os.path.join(output_dir, "BENCH_*.json")))
    if exclude is not None:
        exclude = os.path.abspath(exclude)
        candidates = [c for c in candidates
                      if os.path.abspath(c) != exclude]
    return candidates[-1] if candidates else None


# ---------------------------------------------------------------------------
# regression comparison
# ---------------------------------------------------------------------------

def _config_key(row: dict[str, Any]) -> tuple:
    return (row["compressor"], row["dataset"], row["bound"],
            tuple(row.get("dims", ())))


def compare(current: dict[str, Any], baseline: dict[str, Any],
            threshold_pct: float = 15.0) -> dict[str, Any]:
    """Per-configuration deltas of current vs baseline, with verdicts.

    A configuration regresses when a median time grows more than
    ``threshold_pct`` percent, or the compression ratio shrinks more
    than ``threshold_pct`` percent.  Configurations present on only one
    side are reported but never count as regressions.
    """
    base_rows = {_config_key(r): r for r in baseline["configs"]}
    cur_rows = {_config_key(r): r for r in current["configs"]}
    deltas: list[dict[str, Any]] = []
    regressions: list[dict[str, Any]] = []
    for key, row in cur_rows.items():
        base = base_rows.get(key)
        if base is None:
            deltas.append({"config": row, "status": "new"})
            continue
        entry: dict[str, Any] = {"config": row, "status": "ok",
                                 "deltas_pct": {}}
        if base.get("profile"):
            entry["baseline_profile"] = base["profile"]
        failed: list[str] = []
        for field in ("compress_ms", "decompress_ms"):
            old = base[field]["median"]
            new = row[field]["median"]
            pct = 100.0 * (new - old) / old if old > 0 else 0.0
            entry["deltas_pct"][field] = pct
            if pct > threshold_pct:
                failed.append(f"{field} +{pct:.1f}%")
        old_ratio = base["compression_ratio"]
        new_ratio = row["compression_ratio"]
        ratio_pct = (100.0 * (new_ratio - old_ratio) / old_ratio
                     if old_ratio > 0 else 0.0)
        entry["deltas_pct"]["compression_ratio"] = ratio_pct
        if ratio_pct < -threshold_pct:
            failed.append(f"compression_ratio {ratio_pct:.1f}%")
        if failed:
            entry["status"] = "regression"
            entry["failed"] = failed
            regressions.append(entry)
        deltas.append(entry)
    for key, row in base_rows.items():
        if key not in cur_rows:
            deltas.append({"config": row, "status": "missing"})
    return {
        "baseline_created_at": baseline.get("created_at"),
        "current_created_at": current.get("created_at"),
        "threshold_pct": threshold_pct,
        "deltas": deltas,
        "regressions": regressions,
        "verdict": "REGRESSION" if regressions else "PASS",
    }


def format_comparison(report: dict[str, Any]) -> str:
    """Human-readable verdict table for a :func:`compare` report."""
    lines = [
        f"baseline: {report['baseline_created_at']}  "
        f"current: {report['current_created_at']}  "
        f"threshold: {report['threshold_pct']:g}%",
        f"{'compressor':<10} {'dataset':<12} {'bound':>8} "
        f"{'compress':>10} {'decompress':>11} {'ratio':>8}  status",
    ]
    lines.append("-" * len(lines[-1]))
    for entry in report["deltas"]:
        cfg = entry["config"]
        prefix = (f"{cfg['compressor']:<10} {cfg['dataset']:<12} "
                  f"{cfg['bound']:>8.0e} ")
        if entry["status"] in ("new", "missing"):
            lines.append(prefix + f"{'-':>10} {'-':>11} {'-':>8}  "
                         + entry["status"])
            continue
        d = entry["deltas_pct"]
        lines.append(
            prefix
            + f"{d['compress_ms']:>+9.1f}% {d['decompress_ms']:>+10.1f}% "
            + f"{d['compression_ratio']:>+7.1f}%  " + entry["status"])
    lines.append("")
    lines.append(f"verdict: {report['verdict']}"
                 + (f" ({len(report['regressions'])} configuration(s) "
                    f"beyond threshold)"
                    if report["regressions"] else ""))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def build_bench_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pressio bench",
        description="run the benchmark grid, write a BENCH_<date>.json "
                    "artifact, and compare against the previous one",
    )
    parser.add_argument("--quick", action="store_true",
                        help="small grid for CI smoke runs")
    parser.add_argument("--serve", action="store_true",
                        help="compare served round trips (live local "
                             "daemon, shared-memory handoff) against "
                             "in-process on the quick grid and write a "
                             "pressio-serve-bench/1 artifact")
    parser.add_argument("--serve-output",
                        default="benchmarks/BENCH_serve_compare.json",
                        help="artifact path for the --serve comparison")
    parser.add_argument("--compressors", default=None,
                        help="comma-separated plugin ids")
    parser.add_argument("--datasets", default=None,
                        help="comma-separated synthetic dataset names")
    parser.add_argument("--bounds", default=None,
                        help="comma-separated value-range-relative bounds")
    parser.add_argument("--dims", default=None,
                        help="comma-separated dataset dims")
    parser.add_argument("--reps", type=int, default=None,
                        help="repetitions per configuration")
    parser.add_argument("--output-dir", default="bench-results",
                        help="directory for BENCH_*.json artifacts")
    parser.add_argument("--baseline", default=None,
                        help="explicit baseline artifact (default: the "
                             "previous BENCH_*.json in --output-dir)")
    parser.add_argument("--threshold", type=float, default=15.0,
                        help="regression threshold in percent")
    parser.add_argument("--fail-on-regress", action="store_true",
                        help="exit 1 when any configuration regresses")
    parser.add_argument("--no-compare", action="store_true",
                        help="write the artifact only")
    parser.add_argument("--profile", action="store_true",
                        help="capture a stage profile per configuration "
                             "(JSON + flamegraph in <output-dir>/profiles) "
                             "so regressions can be attributed to a stage")
    parser.add_argument("--history", action="store_true",
                        help="append this run to the quality-drift "
                             "history and report drift against it")
    parser.add_argument("--history-file", default=None,
                        help="history JSONL path (default: "
                             "benchmarks/BENCH_history.jsonl)")
    parser.add_argument("--drift-window", type=int, default=5,
                        help="prior history entries to compare against")
    parser.add_argument("--drift-ratio-pct", type=float, default=10.0,
                        help="flag a ratio this far below the window "
                             "median (percent)")
    parser.add_argument("--drift-margin-pct", type=float, default=25.0,
                        help="flag a bound margin this far above the "
                             "window median (percent)")
    parser.add_argument("--fail-on-drift", action="store_true",
                        help="exit 1 when quality drift is flagged")
    return parser


def run_bench(argv: list[str]) -> int:
    args = build_bench_parser().parse_args(argv)
    if args.serve:
        from ..serve.bench import run_serve_bench

        return run_serve_bench(args)
    compressors = (tuple(args.compressors.split(","))
                   if args.compressors else
                   QUICK_COMPRESSORS if args.quick else DEFAULT_COMPRESSORS)
    datasets = (tuple(args.datasets.split(","))
                if args.datasets else
                QUICK_DATASETS if args.quick else DEFAULT_DATASETS)
    bounds = (tuple(float(b) for b in args.bounds.split(","))
              if args.bounds else
              QUICK_BOUNDS if args.quick else DEFAULT_BOUNDS)
    dims = (tuple(int(d) for d in args.dims.split(","))
            if args.dims else QUICK_DIMS if args.quick else DEFAULT_DIMS)
    reps = args.reps or (QUICK_REPS if args.quick else DEFAULT_REPS)

    print(f"benchmark grid: {len(compressors)} compressor(s) x "
          f"{len(datasets)} dataset(s) x {len(bounds)} bound(s), "
          f"{reps} reps, dims {'x'.join(str(d) for d in dims)}")
    profile_dir = (os.path.join(args.output_dir, "profiles")
                   if args.profile else None)
    rows = run_grid(compressors, datasets, bounds, dims, reps,
                    progress=print, profile_dir=profile_dir)
    path = write_artifact(rows, args.output_dir, quick=args.quick)
    print(f"wrote {path}")
    if profile_dir is not None:
        print(f"wrote {len(rows)} profile(s) to {profile_dir}")

    drifted = False
    if args.history:
        from . import history as _history
        from ..profile.export import git_revision

        history_path = args.history_file or _history.DEFAULT_HISTORY_PATH
        entry = _history.history_entry(
            rows, created_at=load_artifact(path)["created_at"],
            git_sha=git_revision(), quick=args.quick)
        _history.append_history(entry, history_path)
        entries = _history.load_history(history_path)
        print(f"appended run to {history_path} "
              f"({len(entries)} entr{'y' if len(entries) == 1 else 'ies'})")
        flags = _history.detect_drift(
            entries, window=args.drift_window,
            ratio_slo_pct=args.drift_ratio_pct,
            margin_slo_pct=args.drift_margin_pct)
        print(_history.format_drift(flags))
        drifted = bool(flags)

    if args.no_compare:
        return 1 if drifted and args.fail_on_drift else 0
    baseline_path = args.baseline or find_previous_artifact(
        args.output_dir, exclude=path)
    if baseline_path is None:
        print("no previous artifact to compare against; "
              "this run becomes the baseline")
        return 0
    try:
        baseline = load_artifact(baseline_path)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"error: cannot load baseline {baseline_path}: {e}",
              file=sys.stderr)
        return 2
    report = compare(load_artifact(path), baseline,
                     threshold_pct=args.threshold)
    print(f"\ncomparing against {baseline_path}:")
    print(format_comparison(report))
    if report["regressions"] and args.profile:
        print("\nstage attribution for regressed configuration(s):")
        _print_attribution(report["regressions"], args.output_dir,
                           baseline_path)
    if report["regressions"] and args.fail_on_regress:
        return 1
    if drifted and args.fail_on_drift:
        return 1
    return 0
