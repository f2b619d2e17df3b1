"""The layer ledger: each layer as a paired delta against the one below.

Cells, each at 24^3 and 128^3 (nyx), cycling over sz, zfp and mgard at
value-range-relative bounds 1e-4 and 1e-2:

* ``core``   — native API round trip (A) vs the same through the plugin
  (B): the Fig. 3 comparison;
* ``obs``    — plugin round trip with the metrics registry off (A) vs on
  (B);
* ``shm``    — in-process plugin round trip (A) vs the same request
  served over shared memory on the unix socket (B);
* ``inline`` — in-process (A) vs served with the payload inline over
  TCP (B).

Every cell runs through :func:`harness.paired` with the program's
tracer, profiler and flight recorder off; span sums never enter it.
"""

from __future__ import annotations

import numpy as np

import harness

SIZES = {"s24": (24, 24, 24), "s128": (128, 128, 128)}
CONFIGS = [(c, rel) for c in ("sz", "zfp", "mgard") for rel in (1e-4, 1e-2)]
#: the ROADMAP's reference figures the ledger answers against
PAPER_WRAPPER_PCT = 0.47
FIG3_REPO_PCT = "1.9-2.6"
SERVED_24_PCT = 7.1


def _native_round_trip(comp: str, arr: np.ndarray, abs_bound: float):
    from repro.native import mgard, sz, zfp

    if comp == "sz":
        params = sz.sz_params(errorBoundMode=sz.ABS, absErrBound=abs_bound)
        return lambda: sz.decompress(sz.compress(arr, params))
    if comp == "zfp":
        return lambda: zfp.decompress(
            zfp.compress(arr, zfp.MODE_ACCURACY, abs_bound))
    return lambda: mgard.decompress(mgard.compress(arr, abs_bound))


def _plugin_round_trip(library, comp: str, arr: np.ndarray,
                       abs_bound: float):
    from repro import PressioData

    plugin = library.get_compressor(comp)
    if plugin.set_options({"pressio:abs": abs_bound}) != 0:
        raise RuntimeError(plugin.error_msg())
    data = PressioData.from_numpy(arr, copy=False)
    template = PressioData.empty(data.dtype, data.dims)
    return lambda: plugin.decompress(plugin.compress(data), template)


def run(seed: int, budget_s: float, port: int, uds: str | None) -> dict:
    """All cells; returns ``{"metrics": ..., "rows": ..., "answers": ...}``.

    ``budget_s`` is split evenly over the cells; each runs at least
    two pairs per configuration.
    """
    from repro import Pressio, obs
    from repro.datasets import synthetic
    from repro.serve.client import ServeClient

    library = Pressio()
    registry = obs.MetricsRegistry()
    shm = ServeClient(port=port, use_shm=True, uds=uds)
    inline = ServeClient(port=port)
    cells = ("core", "obs", "shm", "inline")
    per_cell = budget_s / (len(cells) * len(SIZES))
    rows, metrics = [], {}
    try:
        for size_name, shape in SIZES.items():
            arr = synthetic.nyx(shape, seed=seed + 3)
            value_range = float(arr.max() - arr.min())
            bounds = [rel * value_range for _, rel in CONFIGS]
            native = [_native_round_trip(c, arr, b)
                      for (c, _), b in zip(CONFIGS, bounds)]
            plugin = [_plugin_round_trip(library, c, arr, b)
                      for (c, _), b in zip(CONFIGS, bounds)]

            # the shm client sends from its own input segment, the
            # zero-copy path the committed served overhead was measured on
            staged = shm.input_array(arr.shape, arr.dtype)
            staged[...] = arr

            def served(client, payload):
                def arm(i):
                    c, _ = CONFIGS[i % len(CONFIGS)]
                    opts = {"pressio:abs": bounds[i % len(CONFIGS)]}
                    client.roundtrip(payload, c, opts, copy=False)
                return arm

            def with_registry(i):
                obs.enable_metrics(registry)
                try:
                    plugin[i % len(CONFIGS)]()
                finally:
                    obs.disable_metrics()

            def pick(fns):
                return lambda i: fns[i % len(fns)]()

            arms = {
                "core": (pick(native), pick(plugin)),
                "obs": (pick(plugin), with_registry),
                "shm": (pick(plugin), served(shm, staged)),
                "inline": (pick(plugin), served(inline, arr)),
            }
            for cell in cells:
                a, b = arms[cell]
                # no separate warm-up: a cold first pair is one outlier
                # ratio, which the median ignores
                res = harness.paired(a, b, min_pairs=2 * len(CONFIGS),
                                     budget_s=per_cell)
                rows.append({"cell": cell, "size": size_name, "n": res.n,
                             "median_ratio": res.median_ratio,
                             "overhead_pct": res.overhead_pct,
                             "wilcoxon_p": res.wilcoxon_p})
                name = {"core": "core.wrapper", "obs": "obs.registry",
                        "shm": "serve.shm", "inline": "serve.inline"}[cell]
                metrics[f"{name}_overhead_pct.{size_name}"] = res.overhead_pct
                metrics[f"{name}_p.{size_name}"] = res.wilcoxon_p
    finally:
        shm.close()
        inline.close()
    return {"metrics": metrics, "rows": rows, "answers": answers(metrics)}


def answers(m: dict) -> dict:
    """The ROADMAP's two ledger questions, answered from this run."""
    w24, w128 = m["core.wrapper_overhead_pct.s24"], \
        m["core.wrapper_overhead_pct.s128"]
    s24, s128 = m["serve.shm_overhead_pct.s24"], \
        m["serve.shm_overhead_pct.s128"]
    q1 = (f"wrapper overhead (plugin vs native API, median of paired "
          f"ratios): {w24:+.2f}% at 24^3 (p={m['core.wrapper_p.s24']:.3f}), "
          f"{w128:+.2f}% at 128^3 (p={m['core.wrapper_p.s128']:.3f}); "
          f"the paper reports {PAPER_WRAPPER_PCT}% and the repo's 24^3 "
          f"Fig. 3 {FIG3_REPO_PCT}%. ")
    if w128 <= PAPER_WRAPPER_PCT:
        q1 += "At paper scale the wrapper costs no more than the paper's figure"
    else:
        q1 += "At paper scale the wrapper costs more than the paper's figure"
    if w24 > w128:
        q1 += ("; the 24^3 share is larger, as a fixed per-call dispatch "
               "cost would make it.")
    else:
        q1 += "; its share does not shrink with array size."
    q2 = (f"served overhead over shm (zero-copy input segment): "
          f"{s24:+.2f}% at 24^3, {s128:+.2f}% at 128^3 (inline: "
          f"{m['serve.inline_overhead_pct.s24']:+.2f}% / "
          f"{m['serve.inline_overhead_pct.s128']:+.2f}%); the committed "
          f"+{SERVED_24_PCT}% (24^3) "
          + ("holds at 128^3." if s128 <= SERVED_24_PCT
             else "does not hold at 128^3."))
    return {"wrapper_overhead": q1, "served_overhead": q2}
