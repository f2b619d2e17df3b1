"""Figure 3 / Section VI — interface overhead of the uniform API.

Methodology mirrors the paper:

* matched pairs: each configuration is run once through the native
  compressor API and once through the LibPressio plugin, back to back,
  timed with the monotonic clock by :func:`repro.obs.bench.paired`
  (arm order alternating per repetition, collector off);
* 3 compressors (sz, zfp, mgard) x 3 SDRBench-analog datasets
  (ScaleLetKF, NYX, HACC) x 4 value-range-relative bounds
  (1e-4 .. 2e-2), trimmed to the paper's **35 configurations**;
* each configuration repeats ``PRESSIO_BENCH_REPS`` times (default 7;
  the paper used 30 on a quiet testbed) and the per-configuration
  *median* percent overhead is reported;
* a Wilcoxon signed-rank test asks whether the median overheads differ
  from zero (the paper found p = .600 — no significant overhead).

The output reproduces Figure 3 as an ASCII histogram of the median
percent overheads.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from scipy import stats

from repro import Pressio, PressioData
from repro.native import mgard as native_mgard
from repro.native import sz as native_sz
from repro.native import zfp as native_zfp
from repro.native.sz import sz_params
from repro.obs.bench import paired

from conftest import emit

REPS = int(os.environ.get("PRESSIO_BENCH_REPS", "7"))
REL_BOUNDS = (1e-4, 1e-3, 1e-2, 2e-2)
COMPRESSORS = ("sz", "zfp", "mgard")
DATASETS = ("scale_letkf", "nyx", "hacc")


def _native_ops(compressor: str, arr: np.ndarray, abs_bound: float):
    """(compress_fn, decompress_fn) against the native API."""
    if compressor == "sz":
        params = sz_params(errorBoundMode=native_sz.ABS,
                           absErrBound=abs_bound)
        return (lambda: native_sz.compress(arr, params),
                lambda stream: native_sz.decompress(stream))
    if compressor == "zfp":
        return (lambda: native_zfp.compress(arr, native_zfp.MODE_ACCURACY,
                                            abs_bound),
                lambda stream: native_zfp.decompress(stream))
    if compressor == "mgard":
        return (lambda: native_mgard.compress(arr, abs_bound),
                lambda stream: native_mgard.decompress(stream))
    raise ValueError(compressor)


def _plugin_ops(library: Pressio, compressor: str, arr: np.ndarray,
                abs_bound: float):
    plugin = library.get_compressor(compressor)
    key = {"sz": "pressio:abs", "zfp": "zfp:accuracy",
           "mgard": "mgard:tolerance"}[compressor]
    assert plugin.set_options({key: abs_bound}) == 0, plugin.error_msg()
    data = PressioData.from_numpy(arr, copy=False)
    template = PressioData.empty(data.dtype, data.dims)
    return (lambda: plugin.compress(data),
            lambda stream: plugin.decompress(stream, template))


def _batch(compress, decompress, inner: int):
    """One arm: ``inner`` back-to-back compress + decompress round trips."""
    def run():
        for _ in range(inner):
            decompress(compress())
    return run


def run_overhead_experiment(datasets: dict[str, np.ndarray]) -> dict:
    """The full matched-pair sweep; returns per-config median overheads."""
    library = Pressio()
    configs = []
    for compressor in COMPRESSORS:
        for dataset in DATASETS:
            for bound in REL_BOUNDS:
                configs.append((compressor, dataset, bound))
    # the paper tests exactly 35 configurations; trim the last
    configs = configs[:35]

    rows = []
    all_observations = []
    for compressor, dataset, rel_bound in configs:
        arr = datasets[dataset]
        value_range = float(arr.max() - arr.min())
        abs_bound = rel_bound * value_range
        native_ops = _native_ops(compressor, arr, abs_bound)
        plugin_ops = _plugin_ops(library, compressor, arr, abs_bound)
        # timed warmup of each arm; the duration sizes the inner batch so
        # every observation is >= ~3 ms (sub-ms calls are noise-dominated)
        warm = paired(_batch(*native_ops, 1), _batch(*plugin_ops, 1),
                      pairs=1)
        inner = max(1, min(10, int(np.ceil(
            0.003 / max(warm.samples[0][0], 1e-6)))))
        run = paired(_batch(*native_ops, inner), _batch(*plugin_ops, inner),
                     pairs=REPS)
        native_times = [t / inner for t in run.samples[0]]
        plugin_times = [t / inner for t in run.samples[1]]
        # per-repetition paired observations (for the max-observation stat)
        observations = [100.0 * (tp - tn) / tn
                        for tn, tp in zip(native_times, plugin_times)]
        all_observations.extend(observations)
        # two estimators per configuration:
        # * median-of-arms (the paper's statistic) — unbiased but noisy
        #   on shared machines;
        # * min-of-arms — scheduler noise only ever *adds* time, so the
        #   per-arm minimum isolates the true cost; this is what the
        #   regression assertion uses.
        mn, mp = float(np.median(native_times)), float(np.median(plugin_times))
        bn, bp = float(np.min(native_times)), float(np.min(plugin_times))
        rows.append({
            "compressor": compressor,
            "dataset": dataset,
            "bound": rel_bound,
            "median_pct": 100.0 * (mp - mn) / mn,
            "best_pct": 100.0 * (bp - bn) / bn,
            "max_pct": float(np.max(observations)),
            "min_pct": float(np.min(observations)),
        })

    medians = np.array([r["median_pct"] for r in rows])
    bests = np.array([r["best_pct"] for r in rows])
    # Wilcoxon signed-rank on the per-config medians vs 0, as the paper
    wilcoxon = stats.wilcoxon(medians)
    return {
        "rows": rows,
        "medians": medians,
        "bests": bests,
        "largest_median": float(np.abs(medians).max()),
        "largest_best": float(np.abs(bests).max()),
        "median_best": float(np.median(bests)),
        "largest_observation": float(np.max(all_observations)),
        "smallest_observation": float(np.min(all_observations)),
        "pvalue": float(wilcoxon.pvalue),
    }


def ascii_histogram(values: np.ndarray, bins: int = 11) -> str:
    lo, hi = float(values.min()), float(values.max())
    span = max(hi - lo, 1e-9)
    counts, edges = np.histogram(values, bins=bins, range=(lo - 0.05 * span,
                                                           hi + 0.05 * span))
    peak = max(int(counts.max()), 1)
    lines = []
    for count, left, right in zip(counts, edges[:-1], edges[1:]):
        bar = "#" * int(round(30 * count / peak))
        lines.append(f"{left:>8.2f}% .. {right:>7.2f}%  {bar} {count}")
    return "\n".join(lines)


def test_fig3_interface_overhead(benchmark, bench_datasets):
    """Regenerate Figure 3; assert the no-significant-overhead finding."""
    result = benchmark.pedantic(
        run_overhead_experiment, args=(bench_datasets,), rounds=1,
        iterations=1)

    table = [f"{'compressor':<10}{'dataset':<14}{'rel bound':>10}"
             f"{'median %':>10}{'best %':>9}{'min %':>9}{'max %':>9}"]
    for r in result["rows"]:
        table.append(f"{r['compressor']:<10}{r['dataset']:<14}"
                     f"{r['bound']:>10.0e}{r['median_pct']:>10.2f}"
                     f"{r['best_pct']:>9.2f}"
                     f"{r['min_pct']:>9.2f}{r['max_pct']:>9.2f}")
    summary = (
        f"configurations: {len(result['rows'])} (paper: 35), "
        f"repetitions each: {REPS} (paper: 30)\n"
        f"largest median overhead:      {result['largest_median']:.2f}% "
        f"(paper: 0.47%; includes machine noise)\n"
        f"largest best-case overhead:   {result['largest_best']:.2f}% "
        f"(noise-robust estimator)\n"
        f"median best-case overhead:    {result['median_best']:.2f}%\n"
        f"largest single observation:   {result['largest_observation']:.2f}%"
        f" (paper: 2.08%)\n"
        f"fastest single observation:   {result['smallest_observation']:.2f}"
        f"%\n"
        f"Wilcoxon signed-rank p-value: {result['pvalue']:.3f} "
        f"(paper: 0.600; p > 0.05 = no significant overhead)\n\n"
        "distribution of median percent overheads (Figure 3):\n"
        + ascii_histogram(result["medians"])
        + "\n\nper-configuration detail:\n" + "\n".join(table)
    )
    emit("Figure 3: interface overhead distribution", summary)

    # the paper's finding: overhead is de minimis relative to run noise.
    # assert on the min-of-arms estimator (scheduler noise only ever
    # adds time) so the check measures the design, not the machine.
    assert result["median_best"] < 6.0, \
        f"systematic overhead detected: {result['median_best']:.2f}%"
    assert result["largest_best"] < 25.0, \
        f"a configuration shows large overhead: {result['largest_best']:.2f}%"
