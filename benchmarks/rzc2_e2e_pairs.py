"""End-to-end paired comparison of the RZC2 rewrite through ``perfbench``.

Runs ``perfbench/run.py`` on the ``paper_grid`` and ``chunked_serial``
workloads for two trees: ``BASELINE_REV`` (exported with ``git
archive`` into a temporary directory) and the working tree.  Each pair
runs both trees on the same seed back to back, in alternating order.
The artifact keeps every run's result line and, per metric, both
medians, the baseline's interquartile range and how many pairs the
working tree won, with "better" taken from ``BENCHMARK.json``.

Usage, from the root of a checkout (about 40 minutes)::

    python3 benchmarks/rzc2_e2e_pairs.py \\
        --output benchmarks/BENCH_rzc2_paper_grid_e2e.json
"""

from __future__ import annotations

import argparse
import datetime
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

#: the last revision before the word-packed BITPACK rewrite
BASELINE_REV = "9511da7"
#: alternating parent/change pairs per workload
PAIRS = 10
#: workload -> first seed; pair i runs seed + i on both sides
WORKLOADS = {"paper_grid": 101, "chunked_serial": 201}
SECONDS = 40

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export_baseline(dest: str) -> None:
    tar = subprocess.run(["git", "archive", BASELINE_REV], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest, filter="data")


def run_once(tree: str, workload: str, seed: int) -> dict:
    """The result line of one ``perfbench`` run in ``tree``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    out = {}
    for metric, direction in better.items():
        par = [r["parent"]["metrics"][metric]["value"] for r in runs]
        chg = [r["change"]["metrics"][metric]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(par, n=4)
        wins = sum((c > p) if direction == "higher" else (c < p)
                   for c, p in zip(chg, par))
        out[metric] = {"parent_median": statistics.median(par),
                       "change_median": statistics.median(chg),
                       "parent_iqr": q3 - q1, "better": direction,
                       "change_wins": wins}
    out["failed"] = {side: sum(r[side]["failed"] for r in runs)
                     for side in ("parent", "change")}
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--output", default=None,
                    help="write the JSON artifact here (default: stdout)")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        better = {m["name"]: m["better"]
                  for m in json.load(f)["end_to_end"]}

    workloads = {}
    with tempfile.TemporaryDirectory() as parent_tree:
        export_baseline(parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for workload, seed0 in WORKLOADS.items():
            runs = []
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else (
                    "change", "parent")
                row = {"seed": seed0 + i, "order": list(order)}
                for side in order:
                    row[side] = run_once(trees[side], workload, seed0 + i)
                runs.append(row)
                print(f"{workload} seed {seed0 + i}: decompress_MBps "
                      + " ".join(f"{s} {row[s]['metrics']['decompress_MBps']['value']:.1f}"
                                 for s in order), file=sys.stderr)
            workloads[workload] = {"summary": summarize(runs, better),
                                   "runs": runs}

    doc = {
        "schema": "pressio-rzc2-e2e-paired/1",
        "created_at": datetime.datetime.now(
            datetime.timezone.utc).isoformat(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "baseline_rev": BASELINE_REV,
        "pairs": PAIRS,
        "run_seconds": SECONDS,
        "method": ("per workload: pair i runs perfbench with seed "
                   "first_seed + i on the baseline tree and the working "
                   "tree back to back, alternating which goes first; "
                   "medians and wins are over pairs, iqr is the "
                   "baseline's"),
        "workloads": workloads,
    }
    text = json.dumps(doc, indent=1)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
