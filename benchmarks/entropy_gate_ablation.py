"""Ablation of the residual codec's low-effort plane chooser.

This script compresses every configuration of the ``paper_grid`` and
``chunked_serial`` workloads (``perfbench/inprocess.py``, so the same
fields, bounds and stacks) with the residual encoder run as each arm
in turn.  Four arms separate the chooser's two entropy-gate changes:

* ``parent`` — the encoder of a baseline git revision (``--baseline``,
  loaded with ``git show``), whose low effort deflates a plane only
  when the entropy estimate beats its structural best by 20 %;
* ``margin-only`` — that same baseline encoder with the 20 % margin
  dropped (its source patched to ``margin = 1.0``): part (1) alone;
* ``no-split`` — the working tree's encoder with the nibble split off
  (``_SPLIT_BITS`` at infinity); it must write exactly the bytes
  ``margin-only`` writes, so the working tree is (1) plus (2) and
  nothing else;
* ``gate`` — the working tree's encoder as it is: (1) and the NIBBLE
  split (2).

Three more arms (``ARMS``, with ``gate`` the chooser itself) replace
the per-plane deflate strategy chooser ``residual._rle_first`` in the
working tree: ``huffman`` (always ``Z_HUFFMAN_ONLY``), ``rle`` (always
``Z_RLE``) and ``best`` (both strategies on the whole plane, keeping
the smaller).

Per configuration and arm the artifact records the compressed stream's
bytes and ratio, the time spent in ``encode_residuals`` (median over
``--reps`` compresses) and how many byte planes took each encoding.
Every residual stream the ``gate`` arm writes is also decoded by the
working tree's decoder and compared with the residuals it encodes.

Usage, from the root of a checkout (several minutes)::

    PYTHONPATH=src python benchmarks/entropy_gate_ablation.py \\
        --baseline 73aa2bc --output benchmarks/BENCH_entropy_gate_ablation.json
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import datetime
import importlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import zlib
from unittest import mock

import numpy as np

from repro.encoders import residual

from rzc2_paper_scale import CALLERS, load_baseline, load_module

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("paper_grid", "chunked_serial")
#: perfbench seeds (circular shifts and mirrors of one realization)
SEEDS = (11, 12, 13)
#: the baseline's low-effort entropy margin, and what ``margin-only``
#: puts in its place
MARGIN = ("margin = 0.8 if level <= 4 else 1.0", "margin = 1.0")
TAG_NAMES = {residual._P_CONST: "const", residual._P_RAW: "raw",
             residual._P_SPARSE: "sparse", residual._P_BITPACK: "bitpack",
             residual._P_ZLIB: "zlib", residual._P_NIBBLE: "nibble"}


def _best_of(plane: np.ndarray, runs: int) -> bool:
    return (len(residual._deflate(plane, zlib.Z_RLE))
            < len(residual._deflate(plane, zlib.Z_HUFFMAN_ONLY)))


#: strategy arm -> replacement for ``residual._rle_first(plane, runs)``
ARMS = {
    "huffman": lambda plane, runs: False,
    "rle": lambda plane, runs: True,
    "gate": residual._rle_first,
    "best": _best_of,
}


def arm(name: str):
    """A context manager that runs the residual codec as strategy arm
    ``name``."""
    return mock.patch.object(residual, "_rle_first", ARMS[name])


def load_margin_only(rev: str):
    """The baseline's encoder with its low-effort margin at 1.0."""
    src = subprocess.run(
        ["git", "show", f"{rev}:src/repro/encoders/residual.py"],
        cwd=ROOT, check=True, capture_output=True, text=True).stdout
    if src.count(MARGIN[0]) != 1:
        raise RuntimeError(f"no low-effort margin in {rev}'s residual.py")
    return load_module(src.replace(*MARGIN), "_residual_margin_only")


def arms(baseline, margin_only) -> dict:
    """arm -> (``encode_residuals`` to call, patch to hold meanwhile)."""
    same = contextlib.nullcontext
    table = {
        "parent": (baseline.encode_residuals, same),
        "margin-only": (margin_only.encode_residuals, same),
        "no-split": (residual.encode_residuals, lambda: mock.patch.object(
            residual, "_SPLIT_BITS", math.inf)),
    }
    for name in ARMS:
        table[name] = (residual.encode_residuals, lambda n=name: arm(n))
    return table


def plane_tags(stream: bytes) -> list[int]:
    """The plane encodings of an RZC2 stream."""
    pos, tags = 14, []
    for _ in range(stream[12]):
        tags.append(stream[pos])
        pos += 9 + int.from_bytes(stream[pos + 1:pos + 9], "little")
    return tags


class Spy:
    """Stands in for ``encode_residuals`` in every caller: encodes with
    ``encode``, times it, counts plane encodings and, if asked, checks
    that the working tree's decoder reads the stream back."""

    def __init__(self, encode, check: bool = False):
        self.encode, self.check = encode, check
        self.seconds, self.calls, self.decode_failures = 0.0, 0, 0
        self.tags = collections.Counter()

    def __call__(self, residuals, backend="zlib", level=1):
        t0 = time.perf_counter()
        stream = self.encode(residuals, backend, level)
        self.seconds += time.perf_counter() - t0
        self.calls += 1
        self.tags.update(TAG_NAMES[t] for t in plane_tags(stream))
        if self.check and not np.array_equal(
                residual.decode_residuals(stream),
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


def run_config(cfg, table: dict, reps: int) -> dict:
    row = {"config": cfg.label, "nbytes": cfg.nbytes, "arms": {}}
    for name, (encode, patch) in table.items():
        times, size = [], None
        for rep in range(reps):
            check = name == "gate" and rep == 0
            spy = Spy(encode, check)
            with patch():
                size = compress(cfg, spy)
            times.append(spy.seconds * 1e3)
            if check:
                row["decodes_ok"] = spy.decode_failures == 0
                row["residual_streams"] = spy.calls
        row["arms"][name] = {"stream_bytes": size,
                             "ratio": cfg.nbytes / size,
                             "encode_ms": statistics.median(times),
                             "plane_tags": dict(spy.tags)}
    return row


def summarize(rows: list[dict]) -> dict:
    names = list(rows[0]["arms"])
    total = {a: sum(r["arms"][a]["stream_bytes"] for r in rows)
             for a in names}
    nbytes = sum(r["nbytes"] for r in rows)
    tags = {a: dict(sum((collections.Counter(r["arms"][a]["plane_tags"])
                         for r in rows), collections.Counter()))
            for a in names}
    return {
        "stream_bytes": total,
        "ratio": {a: nbytes / total[a] for a in names},
        "encode_ms": {a: sum(r["arms"][a]["encode_ms"] for r in rows)
                      for a in names},
        "plane_tags": tags,
        "gate_over_best": total["gate"] / total["best"] - 1,
        "gate_worse_than_huffman": [
            r["config"] for r in rows
            if r["arms"]["gate"]["stream_bytes"]
            > r["arms"]["huffman"]["stream_bytes"]],
        "no_split_matches_margin_only": all(
            r["arms"]["no-split"]["stream_bytes"]
            == r["arms"]["margin-only"]["stream_bytes"] for r in rows),
        "worst_ratio_change_vs_parent": min(
            r["arms"]["gate"]["ratio"] / r["arms"]["parent"]["ratio"] - 1
            for r in rows),
        "decodes_ok": all(r["decodes_ok"] for r in rows),
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

    table = arms(load_baseline(args.baseline),
                 load_margin_only(args.baseline))
    workloads = {}
    for workload in WORKLOADS:
        rows = []
        for seed in args.seeds:
            configs = inprocess.build_configs(
                workload, inprocess.make_fields(seed))
            for cfg in configs:
                row = {"seed": seed, **run_config(cfg, table, args.reps)}
                rows.append(row)
                print(f"{workload} seed {seed} {cfg.label:28s} "
                      + " ".join(f"{a} {v['ratio']:7.2f}"
                                 for a, v in row["arms"].items()),
                      file=sys.stderr)
        workloads[workload] = {"summary": summarize(rows), "configs": rows}

    doc = {
        "schema": "pressio-entropy-gate-ablation/2",
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
                       "sample_bytes": residual._SAMPLE,
                       "split_bits": residual._SPLIT_BITS},
        "method": ("per configuration and arm: compress with the "
                   "residual encoder run as the arm (parent: the baseline "
                   "revision's encoder; margin-only: that encoder with "
                   "its low-effort margin at 1.0; no-split: the working "
                   "tree's with the nibble split off; huffman/rle/best: "
                   "the working tree's with its deflate strategy chooser "
                   "replaced); stream bytes and plane encodings of the "
                   "last compress, encode_ms is the median over reps of "
                   "the time inside encode_residuals; the gate arm's "
                   "residual streams are decoded by the working tree's "
                   "decoder"),
        "workloads": workloads,
    }
    text = json.dumps(doc, indent=1)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    ok = all(w["summary"]["decodes_ok"]
             and w["summary"]["no_split_matches_margin_only"]
             for w in workloads.values())
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
