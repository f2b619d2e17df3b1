"""Ablation of the residual codec's per-plane deflate strategy gate.

At low effort the byte-plane encoder deflates each plane with one
strategy, chosen by ``residual._rle_first``.  This script compresses
every configuration of the ``paper_grid`` and ``chunked_serial``
workloads (``perfbench/inprocess.py``, so the same fields, bounds and
stacks) with that chooser replaced by each arm in turn:

* ``huffman`` — always ``Z_HUFFMAN_ONLY`` (what the encoder did before
  the gate existed);
* ``rle`` — always ``Z_RLE``;
* ``gate`` — the chooser itself: the run fraction, and a sampled trial
  inside the ambiguous band;
* ``best`` — both strategies on the whole plane, keeping the smaller.

A fifth arm, ``parent``, runs the encoder of a baseline git revision
(``--baseline``, loaded with ``git show``).  Per configuration and arm
the artifact records the compressed stream's bytes and ratio and the
time spent in ``encode_residuals`` (median over ``--reps`` compresses).
Every residual stream the ``gate`` arm writes is also decoded by the
baseline's decoder and compared with the residuals it encodes.

Usage, from the root of a checkout (a few minutes)::

    PYTHONPATH=src python benchmarks/entropy_gate_ablation.py \\
        --baseline 63a02d9 --output benchmarks/BENCH_entropy_gate_ablation.json
"""

from __future__ import annotations

import argparse
import datetime
import importlib
import json
import os
import platform
import statistics
import sys
import time
import zlib
from unittest import mock

import numpy as np

from repro.encoders import residual

from rzc2_paper_scale import CALLERS, load_baseline

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("paper_grid", "chunked_serial")
#: perfbench seeds (circular shifts and mirrors of one realization)
SEEDS = (11, 12, 13)


def _best_of(plane: np.ndarray, runs: int) -> bool:
    return (len(residual._deflate(plane, zlib.Z_RLE))
            < len(residual._deflate(plane, zlib.Z_HUFFMAN_ONLY)))


#: arm -> replacement for ``residual._rle_first(plane, runs)``
ARMS = {
    "huffman": lambda plane, runs: False,
    "rle": lambda plane, runs: True,
    "gate": residual._rle_first,
    "best": _best_of,
}


def arm(name: str):
    """A context manager that runs the residual codec as arm ``name``."""
    return mock.patch.object(residual, "_rle_first", ARMS[name])


class Spy:
    """Stands in for ``encode_residuals`` in every caller: encodes with
    ``encode``, times it and, if given, checks ``decoder`` reads it."""

    def __init__(self, encode, decoder=None):
        self.encode, self.decoder = encode, decoder
        self.seconds, self.calls, self.decode_failures = 0.0, 0, 0

    def __call__(self, residuals, backend="zlib", level=1):
        t0 = time.perf_counter()
        stream = self.encode(residuals, backend, level)
        self.seconds += time.perf_counter() - t0
        self.calls += 1
        if self.decoder is not None and not np.array_equal(
                self.decoder.decode_residuals(stream),
                np.asarray(residuals).reshape(-1)):
            self.decode_failures += 1
        return stream

    def installed(self):
        return [mock.patch.object(importlib.import_module(m),
                                  "encode_residuals", self)
                for m in CALLERS]


def compress(cfg, spy: Spy) -> int:
    """Bytes of one compress of ``cfg`` with ``spy`` encoding residuals."""
    patches = spy.installed()
    for p in patches:
        p.start()
    try:
        return cfg.plugin.compress(cfg.data).size_in_bytes
    finally:
        for p in patches:
            p.stop()


def run_config(cfg, baseline, reps: int) -> dict:
    row = {"config": cfg.label, "nbytes": cfg.nbytes, "arms": {}}
    for name in ("parent", *ARMS):
        times, size = [], None
        for rep in range(reps):
            check = baseline if name == "gate" and rep == 0 else None
            if name == "parent":
                spy = Spy(baseline.encode_residuals)
                size = compress(cfg, spy)
            else:
                spy = Spy(residual.encode_residuals, check)
                with arm(name):
                    size = compress(cfg, spy)
            times.append(spy.seconds * 1e3)
            if check is not None:
                row["parent_decodes_ok"] = spy.decode_failures == 0
                row["residual_streams"] = spy.calls
        row["arms"][name] = {"stream_bytes": size,
                             "ratio": cfg.nbytes / size,
                             "encode_ms": statistics.median(times)}
    return row


def summarize(rows: list[dict]) -> dict:
    names = ("parent", *ARMS)
    total = {a: sum(r["arms"][a]["stream_bytes"] for r in rows)
             for a in names}
    nbytes = sum(r["nbytes"] for r in rows)
    return {
        "stream_bytes": total,
        "ratio": {a: nbytes / total[a] for a in names},
        "encode_ms": {a: sum(r["arms"][a]["encode_ms"] for r in rows)
                      for a in names},
        "gate_over_best": total["gate"] / total["best"] - 1,
        "gate_worse_than_huffman": [
            r["config"] for r in rows
            if r["arms"]["gate"]["stream_bytes"]
            > r["arms"]["huffman"]["stream_bytes"]],
        "huffman_matches_parent": all(
            r["arms"]["huffman"]["stream_bytes"]
            == r["arms"]["parent"]["stream_bytes"] for r in rows),
        "worst_ratio_change_vs_parent": min(
            r["arms"]["gate"]["ratio"] / r["arms"]["parent"]["ratio"] - 1
            for r in rows),
        "parent_decodes_ok": all(r["parent_decodes_ok"] for r in rows),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--baseline", required=True, metavar="REV",
                    help="git revision whose encoder is the parent arm")
    ap.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    ap.add_argument("--reps", type=int, default=3,
                    help="compresses per arm and configuration")
    ap.add_argument("--output", default=None,
                    help="write the JSON artifact here (default: stdout)")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import inprocess

    baseline = load_baseline(args.baseline)
    workloads = {}
    for workload in WORKLOADS:
        rows = []
        for seed in args.seeds:
            configs = inprocess.build_configs(
                workload, inprocess.make_fields(seed))
            for cfg in configs:
                row = {"seed": seed, **run_config(cfg, baseline, args.reps)}
                rows.append(row)
                arms = row["arms"]
                print(f"{workload} seed {seed} {cfg.label:28s} "
                      + " ".join(f"{a} {v['ratio']:7.2f}"
                                 for a, v in arms.items()),
                      file=sys.stderr)
        workloads[workload] = {"summary": summarize(rows), "configs": rows}

    doc = {
        "schema": "pressio-entropy-gate-ablation/1",
        "created_at": datetime.datetime.now(
            datetime.timezone.utc).isoformat(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "zlib": zlib.ZLIB_RUNTIME_VERSION,
        "baseline_rev": args.baseline,
        "seeds": args.seeds,
        "reps": args.reps,
        "thresholds": {"rle_sure": residual._RLE_SURE,
                       "rle_never": residual._RLE_NEVER,
                       "sample_bytes": residual._SAMPLE},
        "method": ("per configuration and arm: compress with the "
                   "residual codec's strategy chooser replaced by the "
                   "arm (parent: the baseline revision's encoder); "
                   "stream bytes of the last compress, encode_ms is the "
                   "median over reps of the time inside "
                   "encode_residuals; the gate arm's residual streams "
                   "are decoded by the baseline's decoder"),
        "workloads": workloads,
    }
    text = json.dumps(doc, indent=1)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    ok = all(w["summary"]["parent_decodes_ok"] for w in workloads.values())
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
