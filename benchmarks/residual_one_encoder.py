"""Size sweep of the residual encoder: every backend, small and large arrays.

The residual codec once wrote two formats: RZC1 for the ``bz2`` and
``lzma`` backends and, below 2048 residuals, whichever of RZC1 and
RZC2 came out smaller for ``zlib``; now it writes RZC2 everywhere.
This script measures what that costs or saves per backend.

It compresses sz, zfp and mgard at value-range-relative bounds 1e-4
and 1e-2 on two sets of fields, capturing every residual array the
compressor hands to ``encode_residuals``:

* small: the conformance fields (``repro.conformance.fields``), the
  golden corpus's 1024-value field and a constant 10x10 field;
* bench scale: the ``benchmarks/conftest.py`` analogs (ScaleLETKF
  24x48x48, nyx 48^3, CLOUD 16x64x64) and a 4x128x128 nyx slab (the
  shape of ``chunking``'s slabs).

Each captured array is then encoded with every backend at effort
levels 1 and 6 by two versions of ``repro/encoders/residual.py``: the
one in a baseline git revision (``--baseline``, loaded with
``git show``) and the working tree's, timed back to back in
alternating order, ``--reps`` times, median per call.  Every stream of
either version must decode, with the working tree's decoder, to the
array it encodes.  Per backend and size class (below 2048 residuals,
or not) the artifact records the calls, total stream bytes and encode
ms of both versions, how many streams came out identical, smaller or
larger, and every stream that grew.

Usage, from the root of a checkout (a minute or two)::

    # RZC2 for every backend and size against the revision before it
    PYTHONPATH=src python benchmarks/residual_one_encoder.py \\
        --baseline 3016231 --output benchmarks/BENCH_residual_one_encoder.json
    # PACKED planes and bare .lzma plane framing against the revision
    # before them
    PYTHONPATH=src python benchmarks/residual_one_encoder.py \\
        --baseline 2687230 --output benchmarks/BENCH_residual_packed_sweep.json
"""

from __future__ import annotations

import argparse
import collections
import datetime
import importlib
import json
import os
import platform
import statistics
import sys
import time
from unittest import mock

import numpy as np

from repro import Pressio, PressioData
from repro.conformance.fields import conformance_fields
from repro.conformance.golden import golden_field
from repro.datasets import synthetic
from repro.encoders import residual as change

from rzc2_paper_scale import CALLERS, load_baseline

COMPRESSORS = ("sz", "zfp", "mgard")
REL_BOUNDS = (1e-4, 1e-2)
LEVELS = (1, 6)
#: residual counts below this are the "small" class
SMALL = 2048


def fields() -> dict[str, dict[str, np.ndarray]]:
    small = {f"conformance/{f.name}": f.array()
             for f in conformance_fields()}
    small["golden"] = golden_field()
    small["constant10x10"] = np.full((10, 10), 2.5)
    bench = {"letkf": synthetic.scale_letkf((24, 48, 48)),
             "nyx": synthetic.nyx((48, 48, 48)),
             "cloud": synthetic.hurricane_cloud((16, 64, 64)),
             "nyx_slab": synthetic.nyx((4, 128, 128))}
    return {"small": small, "bench": bench}


def capture(library: Pressio, name: str, arr: np.ndarray,
            rel: float) -> list[np.ndarray]:
    """Every residual array one compress encodes; empty if the
    compressor rejects the field."""
    calls = []

    def spy(residuals, backend="zlib", level=1):
        calls.append(np.array(residuals, dtype=np.int64).reshape(-1))
        return change.encode_residuals(residuals, backend, level)

    comp = library.get_compressor(name)
    finite = arr[np.isfinite(arr)]
    span = float(finite.max() - finite.min()) if finite.size else 0.0
    if comp.set_options({"pressio:abs": rel * span or rel}) != 0:
        return []
    patches = [mock.patch.object(importlib.import_module(m),
                                 "encode_residuals", spy) for m in CALLERS]
    for p in patches:
        p.start()
    try:
        comp.compress(PressioData.from_numpy(np.ascontiguousarray(arr)))
    except Exception:  # noqa: BLE001 - a rejected field is skipped
        return []
    finally:
        for p in patches:
            p.stop()
    return calls


def encode_timed(mod, r: np.ndarray, backend: str,
                 level: int) -> tuple[bytes, float]:
    t0 = time.perf_counter()
    stream = mod.encode_residuals(r, backend, level)
    return stream, (time.perf_counter() - t0) * 1e3


def measure(base, r: np.ndarray, backend: str, level: int,
            reps: int) -> dict:
    """Both versions' stream bytes and median encode ms for one call."""
    times = {"parent": [], "change": []}
    mods = (("parent", base), ("change", change))
    streams = {}
    for rep in range(reps):
        for side, mod in mods if rep % 2 == 0 else mods[::-1]:
            streams[side], ms = encode_timed(mod, r, backend, level)
            times[side].append(ms)
    for side, stream in streams.items():
        if not np.array_equal(change.decode_residuals(stream, count=r.size),
                              r):
            raise AssertionError(f"{side} stream failed to round trip")
    return {"parent_bytes": len(streams["parent"]),
            "change_bytes": len(streams["change"]),
            "parent_format": streams["parent"][:4].decode(),
            "parent_ms": statistics.median(times["parent"]),
            "change_ms": statistics.median(times["change"])}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--baseline", required=True, metavar="REV",
                    help="git revision whose encoder is the parent")
    ap.add_argument("--reps", type=int, default=3,
                    help="alternating encodes per version and call")
    ap.add_argument("--output", default=None,
                    help="write the JSON artifact here (default: stdout)")
    args = ap.parse_args(argv)

    base = load_baseline(args.baseline)
    library = Pressio()
    groups = collections.defaultdict(lambda: {
        "calls": 0, "parent_bytes": 0, "change_bytes": 0, "parent_ms": 0.0,
        "change_ms": 0.0, "identical": 0, "smaller": 0, "larger": 0,
        "parent_formats": collections.Counter()})
    grown, skipped, captured = [], [], 0
    for family, table in fields().items():
        for field, arr in table.items():
            for name in COMPRESSORS:
                for rel in REL_BOUNDS:
                    label = f"{name}:{field}:{rel:g}"
                    calls = capture(library, name, arr, rel)
                    if not calls:
                        skipped.append(label)
                        continue
                    captured += len(calls)
                    for i, r in enumerate(calls):
                        size = "small" if r.size < SMALL else "large"
                        for backend in change.LOSSLESS_BACKENDS:
                            for level in LEVELS:
                                row = measure(base, r, backend, level,
                                              args.reps)
                                g = groups[f"{backend}/{size}"]
                                g["calls"] += 1
                                for k in ("parent_bytes", "change_bytes",
                                          "parent_ms", "change_ms"):
                                    g[k] += row[k]
                                g["parent_formats"][row["parent_format"]] += 1
                                delta = row["change_bytes"] - row["parent_bytes"]
                                g["identical" if delta == 0 else
                                  "smaller" if delta < 0 else "larger"] += 1
                                if delta > 0:
                                    grown.append({
                                        "config": label, "call": i,
                                        "family": family, "residuals": r.size,
                                        "backend": backend, "level": level,
                                        "parent_bytes": row["parent_bytes"],
                                        "change_bytes": row["change_bytes"]})
                    print(f"{label:36s} {len(calls)} arrays", file=sys.stderr)

    for g in groups.values():
        g["parent_formats"] = dict(g["parent_formats"])
        g["bytes_change"] = g["change_bytes"] / g["parent_bytes"] - 1
        g["encode_ms_change"] = g["change_ms"] / g["parent_ms"] - 1
    doc = {
        "schema": "pressio-residual-one-encoder/1",
        "created_at": datetime.datetime.now(
            datetime.timezone.utc).isoformat(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "baseline_rev": args.baseline,
        "reps": args.reps,
        "method": ("one compress per compressor, field and bound captures "
                   "the residual arrays; each is encoded with every backend "
                   "at levels 1 and 6 by the baseline and the working "
                   "tree's encoder, alternating which goes first, median "
                   "ms over reps per call; groups sum calls by backend and "
                   "residual count (small: below 2048)"),
        "captured_arrays": captured,
        "skipped_configs": skipped,
        "groups": dict(sorted(groups.items())),
        "grown_streams": grown,
        "no_group_larger": all(g["change_bytes"] <= g["parent_bytes"]
                               for g in groups.values()),
    }
    text = json.dumps(doc, indent=2)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    for key, g in doc["groups"].items():
        print(f"{key:12s} {g['calls']:4d} calls  bytes {g['parent_bytes']:>10d}"
              f" -> {g['change_bytes']:>10d} ({g['bytes_change']:+.1%})  "
              f"encode ms {g['parent_ms']:8.1f} -> {g['change_ms']:8.1f}  "
              f"same/smaller/larger {g['identical']}/{g['smaller']}/"
              f"{g['larger']}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
