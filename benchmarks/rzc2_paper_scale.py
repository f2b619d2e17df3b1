"""Paired codec-layer comparison of the RZC2 residual encoder at paper scale.

Runs each ``paper_grid`` configuration (sz, zfp, mgard x nyx 128^3 and
the CLOUD analog 50x250x250 x value-range-relative bounds 1e-4, 1e-2)
once, capturing every residual array the compressor hands to
``encode_residuals``.  It then times ``encode_residuals`` and
``decode_residuals`` on those arrays for two versions of
``repro/encoders/residual.py``: the one in a baseline git revision and
the one in the working tree.  Pairs run back to back in alternating
order, and the per-configuration figure is the median over pairs of
the change/baseline time ratio.  It also checks whether both versions
emit byte-identical streams, and that both decode the working tree's
streams.

Two more, leave-one-out versions are the working tree's codec with one
of its exact skip gates removed: the low-effort SPARSE fast path (which
skips the run count and everything after it) or the chunk-width scan
gate.  Their encode times, their streams (which must not differ) and
how often each gate fires show what each gate alone contributes.  The
baseline's streams differ from the working tree's wherever the per-plane
deflate strategy choice picks ``Z_RLE``, so ``streams_identical`` reads
False against ``BASELINE_REV``; it is the leave-one-out versions that
must match.

Usage, from the root of a checkout::

    PYTHONPATH=src python benchmarks/rzc2_paper_scale.py \\
        --output benchmarks/BENCH_rzc2_paper_scale.json
"""

from __future__ import annotations

import argparse
import datetime
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import types
from unittest import mock

import numpy as np

from repro import Pressio, PressioData
from repro.datasets import synthetic
from repro.encoders import residual as change

#: the last revision before the word-packed BITPACK rewrite
BASELINE_REV = "9511da7"
#: alternating parent/change pairs per configuration
PAIRS = 10
COMPRESSORS = ("sz", "zfp", "mgard")
REL_BOUNDS = (1e-4, 1e-2)
#: the realization ``perfbench``'s paper_grid shifts and mirrors
REALIZATION = 7
#: modules that call ``encode_residuals`` on the paper_grid path
CALLERS = ("repro.native.sz.core", "repro.native.sz.regression",
           "repro.native.zfp.core", "repro.native.mgard.core")
#: the skip gates in ``_encode_plane``: the gate's source text, what
#: replaces it in the leave-one-out version, and the module global that
#: only the skipped work uses (its uses are counted to find the fires)
GATES = {
    "sparse": ("if level <= 4 and sparse_cost <= min(",
               "if False and sparse_cost <= min(", "_run_count"),
    "scan": ("if sparse_cost <= (nchunks + 1) // 2:", "if False:",
             "_BITLEN8"),
}


def load_module(src: str, name: str) -> types.ModuleType:
    """A fresh module in ``repro.encoders`` executed from ``src``."""
    mod = types.ModuleType(f"repro.encoders.{name}")
    mod.__package__ = "repro.encoders"
    exec(compile(src, f"{name}.py", "exec"), mod.__dict__)
    return mod


def load_baseline(rev: str = BASELINE_REV) -> types.ModuleType:
    """``repro.encoders.residual`` as it was at ``rev``."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = subprocess.run(
        ["git", "show", f"{rev}:src/repro/encoders/residual.py"],
        cwd=root, check=True, capture_output=True, text=True).stdout
    return load_module(src, "_residual_baseline")


def load_without_gate(gate: str) -> types.ModuleType:
    """The working tree's codec with one skip gate removed."""
    with open(change.__file__) as f:
        src = f.read()
    text, replacement, _ = GATES[gate]
    if src.count(text) != 1:
        raise RuntimeError(f"{gate} skip gate not found in residual.py")
    return load_module(src.replace(text, replacement),
                       f"_residual_no_{gate}_gate")


def fields() -> dict[str, np.ndarray]:
    return {"nyx": synthetic.nyx((128, 128, 128), seed=REALIZATION),
            "cloud": synthetic.hurricane_cloud((50, 250, 250),
                                               seed=REALIZATION)}


def capture(library: Pressio, name: str, arr: np.ndarray,
            rel: float) -> list[tuple[np.ndarray, str, int]]:
    """Every ``(residuals, backend, level)`` one compress encodes."""
    calls = []

    def spy(residuals, backend="zlib", level=1):
        calls.append((np.array(residuals, dtype=np.int64), backend, level))
        return change.encode_residuals(residuals, backend, level)

    comp = library.get_compressor(name)
    bound = rel * float(arr.max() - arr.min())
    if comp.set_options({"pressio:abs": bound}) != 0:
        raise RuntimeError(f"{name}: {comp.error_msg()}")
    patches = [mock.patch.object(importlib.import_module(m),
                                 "encode_residuals", spy) for m in CALLERS]
    for p in patches:
        p.start()
    try:
        comp.compress(PressioData.from_numpy(arr, copy=False))
    finally:
        for p in patches:
            p.stop()
    return calls


def time_encode(mod: types.ModuleType, calls) -> float:
    """Encode ms summed over one configuration's calls."""
    t0 = time.perf_counter()
    for r, backend, level in calls:
        mod.encode_residuals(r, backend, level)
    return (time.perf_counter() - t0) * 1e3


def time_decode(mod: types.ModuleType, streams) -> float:
    """Decode ms summed over one configuration's streams."""
    t0 = time.perf_counter()
    for s in streams:
        mod.decode_residuals(s)
    return (time.perf_counter() - t0) * 1e3


class _Uses:
    """Counts the calls or indexings of a wrapped module global."""

    def __init__(self, inner):
        self.inner, self.count = inner, 0

    def __call__(self, *args):
        self.count += 1
        return self.inner(*args)

    def __getitem__(self, key):
        self.count += 1
        return self.inner[key]


def work_uses(mod: types.ModuleType, name: str, calls) -> int:
    """How many times encoding ``calls`` uses ``mod``'s global ``name``."""
    uses = _Uses(getattr(mod, name))
    with mock.patch.object(mod, name, uses):
        for r, backend, level in calls:
            mod.encode_residuals(r, backend, level)
    return uses.count


def paired(run_a, run_b) -> tuple[list, list]:
    """``PAIRS`` back-to-back runs of two timers, alternating which goes
    first: (``run_a`` results, ``run_b`` results)."""
    a, b = [], []
    for i in range(PAIRS):
        runs = ((run_a, a), (run_b, b))
        for run, dest in runs if i % 2 == 0 else runs[::-1]:
            dest.append(run())
    return a, b


def compare_config(base, no_gate: dict, calls) -> dict:
    streams = [change.encode_residuals(r, b, lv) for r, b, lv in calls]

    def identical(m) -> bool:
        return all(m.encode_residuals(r, b, lv) == s
                   for (r, b, lv), s in zip(calls, streams))
    decodes = all(np.array_equal(base.decode_residuals(s), r)
                  and np.array_equal(change.decode_residuals(s), r)
                  for (r, _, _), s in zip(calls, streams))
    for m in (base, change, *no_gate.values()):  # warm pool and caches
        time_encode(m, calls)
        time_decode(m, streams)
    par, chg = paired(
        lambda: (time_encode(base, calls), time_decode(base, streams)),
        lambda: (time_encode(change, calls), time_decode(change, streams)))
    out = {"calls": len(calls),
           "elements": int(sum(r.size for r, _, _ in calls)),
           "planes": sum(s[12] for s in streams if s[:4] == b"RZC2"),
           "stream_bytes": int(sum(len(s) for s in streams)),
           "streams_identical": identical(base), "cross_decode_ok": decodes}
    for k, stage in enumerate(("encode", "decode")):
        p = [t[k] for t in par]
        c = [t[k] for t in chg]
        out[f"{stage}_ms"] = {"parent": statistics.median(p),
                              "change": statistics.median(c)}
        out[f"{stage}_ratio_median"] = statistics.median(
            x / y for x, y in zip(c, p))
        out[f"{stage}_samples_ms"] = {"parent": p, "change": c}
    out["gates"] = {}
    for gate, mod in no_gate.items():
        # each gate is its own pairing, so no run sits between two others
        c, ng = paired(lambda: time_encode(change, calls),
                       lambda: time_encode(mod, calls))
        work = GATES[gate][2]
        out["gates"][gate] = {
            "streams_identical": identical(mod),
            "fires": work_uses(mod, work, calls)
            - work_uses(change, work, calls),
            "encode_ms": {"change": statistics.median(c),
                          "no_gate": statistics.median(ng)},
            "encode_ratio_median": statistics.median(
                x / y for x, y in zip(c, ng)),
            "change_wins": sum(x < y for x, y in zip(c, ng)),
            "encode_samples_ms": {"change": c, "no_gate": ng}}
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--output", default=None,
                    help="write the JSON artifact here (default: stdout)")
    args = ap.parse_args(argv)

    base = load_baseline()
    no_gate = {gate: load_without_gate(gate) for gate in GATES}
    library = Pressio()
    configs = []
    for name in COMPRESSORS:
        for field, arr in fields().items():
            for rel in REL_BOUNDS:
                label = f"{name}:{field}:{rel:g}"
                row = compare_config(base, no_gate,
                                     capture(library, name, arr, rel))
                configs.append({"config": label, **row})
                print(f"{label:18s} encode x{row['encode_ratio_median']:.3f} "
                      f"decode x{row['decode_ratio_median']:.3f} "
                      + "".join(f"{g} gate x{v['encode_ratio_median']:.3f} "
                                f"({v['fires']} fires, identical="
                                f"{v['streams_identical']}) "
                                for g, v in row["gates"].items())
                      + f"identical={row['streams_identical']}",
                      file=sys.stderr)

    def round_ratio(num, den) -> float:
        """Median over pairs of one round's summed ms, ``num / den``."""
        return statistics.median(
            sum(n) / sum(d) for n, d in zip(zip(*map(num, configs)),
                                            zip(*map(den, configs))))

    doc = {
        "schema": "pressio-rzc2-paired/1",
        "created_at": datetime.datetime.now(
            datetime.timezone.utc).isoformat(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "baseline_rev": BASELINE_REV,
        "pairs": PAIRS,
        "method": ("per configuration: one compress captures the residual "
                   "arrays; parent and change encode and decode them back "
                   "to back in alternating order, then, per skip gate, "
                   "change and change-without-the-gate encode them the "
                   "same way; figures are medians over pairs, ratios are "
                   "change/parent and change/no_gate; fires count the "
                   "uses of the gated work that a gate saves"),
        "summary": {
            "streams_identical": all(c["streams_identical"]
                                     for c in configs),
            "cross_decode_ok": all(c["cross_decode_ok"] for c in configs),
            "round_encode_ms": {
                k: sum(c["encode_ms"][k] for c in configs)
                for k in ("parent", "change")},
            "round_decode_ms": {
                k: sum(c["decode_ms"][k] for c in configs)
                for k in ("parent", "change")},
            "round_encode_ratio_median": round_ratio(
                lambda c: c["encode_samples_ms"]["change"],
                lambda c: c["encode_samples_ms"]["parent"]),
            "round_decode_ratio_median": round_ratio(
                lambda c: c["decode_samples_ms"]["change"],
                lambda c: c["decode_samples_ms"]["parent"]),
            "planes": sum(c["planes"] for c in configs),
            "gates": {gate: {
                "streams_identical": all(
                    c["gates"][gate]["streams_identical"] for c in configs),
                "fires": sum(c["gates"][gate]["fires"] for c in configs),
                "configs_fired": sum(c["gates"][gate]["fires"] > 0
                                     for c in configs),
                "round_encode_ms": {
                    k: sum(c["gates"][gate]["encode_ms"][k]
                           for c in configs)
                    for k in ("change", "no_gate")},
                "round_encode_ratio_median": round_ratio(
                    lambda c, g=gate:
                        c["gates"][g]["encode_samples_ms"]["change"],
                    lambda c, g=gate:
                        c["gates"][g]["encode_samples_ms"]["no_gate"]),
            } for gate in GATES},
        },
        "configs": configs,
    }
    text = json.dumps(doc, indent=1)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    summary = doc["summary"]
    exact = all(g["streams_identical"] for g in summary["gates"].values())
    return 0 if exact and summary["cross_decode_ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
