"""Ablation of the residual codec's low-effort plane chooser.

This script compresses every configuration of the ``paper_grid`` and
``chunked_serial`` workloads (``perfbench/inprocess.py``, so the same
fields, bounds and stacks) with the residual encoder run as each arm
in turn.  Four arms separate the working tree's plane encodings:

* ``parent`` — the encoder of a baseline git revision (``--baseline``,
  loaded with ``git show``);
* ``no-pack`` — the working tree's encoder with PACKED planes off
  (``_pack_width`` always 0); against the revision before PACKED it
  must write exactly the bytes ``parent`` writes, so the working tree
  is that revision plus PACKED and nothing else;
* ``no-split`` — the working tree's encoder with the nibble split off
  (``_SPLIT_BITS`` at infinity);
* ``gate`` — the working tree's encoder as it is.

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

A bound sweep follows: sz, zfp and mgard on the first seed's nyx and
CLOUD fields at value-range-relative bounds 1e-1 down to 1e-9, one
compress per ``parent``, ``no-pack`` and ``gate`` arm, recording the
stream bytes and plane encodings and listing every configuration whose
``gate`` stream is larger than its ``parent`` stream.  The exit status
is nonzero if a stream fails to decode, ``no-pack`` departs from
``parent`` or a sweep stream grew.

Usage, from the root of a checkout (ten minutes or so)::

    PYTHONPATH=src python benchmarks/entropy_gate_ablation.py \\
        --baseline 2687230 --output benchmarks/BENCH_packed_planes_ablation.json

``BENCH_entropy_gate_ablation.json`` was written by this script's
previous version (``--baseline 73aa2bc``), whose ``margin-only`` arm
patched the baseline's 20 % low-effort entropy margin away.
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
import sys
import time
import types
import zlib
from unittest import mock

import numpy as np

from repro import Pressio, PressioData
from repro.encoders import residual

from rzc2_paper_scale import CALLERS, load_baseline

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("paper_grid", "chunked_serial")
#: perfbench seeds (circular shifts and mirrors of one realization)
SEEDS = (11, 12, 13)
#: the bound sweep: compressors, fields and value-range-relative bounds
SWEEP_CODECS = ("sz", "zfp", "mgard")
SWEEP_FIELDS = ("nyx", "cloud")
SWEEP_BOUNDS = tuple(10.0 ** -e for e in range(1, 10))
#: arms the bound sweep runs
SWEEP_ARMS = ("parent", "no-pack", "gate")
TAG_NAMES = {residual._P_CONST: "const", residual._P_RAW: "raw",
             residual._P_SPARSE: "sparse", residual._P_BITPACK: "bitpack",
             residual._P_ZLIB: "zlib", residual._P_NIBBLE: "nibble",
             residual._P_PACKED: "packed"}


def _best_of(plane: np.ndarray, runs: int) -> tuple[bool, None]:
    return (len(residual._deflate(plane, zlib.Z_RLE))
            < len(residual._deflate(plane, zlib.Z_HUFFMAN_ONLY))), None


#: strategy arm -> replacement for ``residual._rle_first(plane, runs)``,
#: which returns the choice and (None: no reusable stream)
ARMS = {
    "huffman": lambda plane, runs: (False, None),
    "rle": lambda plane, runs: (True, None),
    "gate": residual._rle_first,
    "best": _best_of,
}


def arm(name: str):
    """A context manager that runs the residual codec as strategy arm
    ``name``."""
    return mock.patch.object(residual, "_rle_first", ARMS[name])


def arms(baseline) -> dict:
    """arm -> (``encode_residuals`` to call, patch to hold meanwhile)."""
    table = {
        "parent": (baseline.encode_residuals, contextlib.nullcontext),
        "no-pack": (residual.encode_residuals, lambda: mock.patch.object(
            residual, "_pack_width", lambda plane: 0)),
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
        "no_pack_matches_parent": all(
            r["arms"]["no-pack"]["stream_bytes"]
            == r["arms"]["parent"]["stream_bytes"] for r in rows),
        "worst_ratio_change_vs_parent": min(
            r["arms"]["gate"]["ratio"] / r["arms"]["parent"]["ratio"] - 1
            for r in rows),
        "decodes_ok": all(r["decodes_ok"] for r in rows),
    }


def bound_sweep(fields: dict, table: dict) -> dict:
    """Stream bytes and plane encodings of every sweep configuration
    under the ``SWEEP_ARMS``, and the configurations ``gate`` grew."""
    library = Pressio()
    rows = []
    for codec in SWEEP_CODECS:
        for name in SWEEP_FIELDS:
            arr = fields[name]
            value_range = float(arr.max() - arr.min())
            for rel in SWEEP_BOUNDS:
                plugin = library.get_compressor(codec)
                if plugin.set_options({"pressio:abs": rel * value_range}):
                    raise RuntimeError(f"{codec}: {plugin.error_msg()}")
                cfg = types.SimpleNamespace(
                    plugin=plugin, data=PressioData.from_numpy(arr,
                                                               copy=False))
                row = {"config": f"{codec}:{name}:{rel:g}",
                       "nbytes": arr.nbytes, "arms": {}}
                for arm_name in SWEEP_ARMS:
                    encode, patch = table[arm_name]
                    spy = Spy(encode, check=arm_name == "gate")
                    with patch():
                        size = compress(cfg, spy)
                    row["arms"][arm_name] = {"stream_bytes": size,
                                             "plane_tags": dict(spy.tags)}
                    if spy.check:
                        row["decodes_ok"] = spy.decode_failures == 0
                rows.append(row)
                print(f"sweep {row['config']:22s} " + " ".join(
                    f"{a} {v['stream_bytes']}"
                    for a, v in row["arms"].items()), file=sys.stderr)

    def change(r):
        return (r["arms"]["gate"]["stream_bytes"]
                / r["arms"]["parent"]["stream_bytes"] - 1)
    return {
        "codecs": SWEEP_CODECS, "fields": SWEEP_FIELDS,
        "rel_bounds": SWEEP_BOUNDS,
        "grown": [r["config"] for r in rows if change(r) > 0],
        "largest_shrink": min(change(r) for r in rows),
        "no_pack_matches_parent": all(
            r["arms"]["no-pack"]["stream_bytes"]
            == r["arms"]["parent"]["stream_bytes"] for r in rows),
        "decodes_ok": all(r["decodes_ok"] for r in rows),
        "configs": rows,
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

    table = arms(load_baseline(args.baseline))
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
    sweep = bound_sweep(inprocess.make_fields(args.seeds[0]), table)

    doc = {
        "schema": "pressio-entropy-gate-ablation/3",
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
                   "revision's encoder; no-pack: the working tree's "
                   "with PACKED planes off; no-split: the working "
                   "tree's with the nibble split off; huffman/rle/best: "
                   "the working tree's with its deflate strategy chooser "
                   "replaced); stream bytes and plane encodings of the "
                   "last compress, encode_ms is the median over reps of "
                   "the time inside encode_residuals; the gate arm's "
                   "residual streams are decoded by the working tree's "
                   "decoder; the bound sweep compresses once per arm"),
        "workloads": workloads,
        "bound_sweep": sweep,
    }
    text = json.dumps(doc, indent=1)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    ok = all(w["summary"]["decodes_ok"]
             and w["summary"]["no_pack_matches_parent"]
             for w in workloads.values())
    ok = ok and sweep["decodes_ok"] and sweep["no_pack_matches_parent"]
    ok = ok and not sweep["grown"]
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
