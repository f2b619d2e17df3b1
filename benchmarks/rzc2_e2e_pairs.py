"""End-to-end paired comparison of a native change through ``perfbench``.

Compares any change to the native cores or the encoders, not only an
encoder change.  Runs ``perfbench/run.py`` on the ``paper_grid`` and
``chunked_serial`` workloads for two trees: a baseline revision
(``--baseline``, default ``BASELINE_REV``; exported with ``git
archive`` into a temporary directory) and the working tree.  Each pair
runs both trees on the same seed back to back, in alternating order.
The artifact keeps every run's result line and, per metric, both
medians, the baseline's interquartile range and how many pairs the
working tree won, with "better" taken from ``BENCHMARK.json``.

``--traced`` instead runs one traced run per tree (``--trace 1``, seed
``TRACED_SEED``, baseline first) on each workload, whose per-layer
metrics show where the time went; ``chunked_serial``'s traced run also
drives the ``pipelined`` stacks, so ``meta.self_ms`` shows the chunking
layer next to ``native.*`` and ``encoders.*``.

Usage, from the root of a checkout (about 40 minutes each)::

    # the RZC2 rewrite against the revision before it
    python3 benchmarks/rzc2_e2e_pairs.py \\
        --output benchmarks/BENCH_rzc2_paper_grid_e2e.json
    # the narrow-width encode path against the revision before it
    python3 benchmarks/rzc2_e2e_pairs.py --baseline 7533a5a \\
        --output benchmarks/BENCH_narrow_encode_e2e.json
    # the int32 coefficient-major zfp lift against the revision before it
    python3 benchmarks/rzc2_e2e_pairs.py --baseline fa7c14c \\
        --output benchmarks/BENCH_zfp_lift_e2e.json
    # and where its time went: one traced run per tree and workload
    python3 benchmarks/rzc2_e2e_pairs.py --baseline fa7c14c --traced \\
        --output benchmarks/BENCH_zfp_lift_traced.json
    # the single-pass decode path (slab-wise Lorenzo prefix sums, one
    # dequantize pass) against the revision before it, and its trace
    python3 benchmarks/rzc2_e2e_pairs.py --baseline 20483cf \\
        --output benchmarks/BENCH_decode_e2e.json
    python3 benchmarks/rzc2_e2e_pairs.py --baseline 20483cf --traced \\
        --output benchmarks/BENCH_decode_traced.json
    # mgard lifted in place on one buffer against the revision before it
    python3 benchmarks/rzc2_e2e_pairs.py --baseline 7d28eaf \\
        --output benchmarks/BENCH_mgard_inplace_e2e.json
    # chunking cut into whole leading-axis slabs (CHK2) against the
    # revision before it, and its trace on both workloads
    python3 benchmarks/rzc2_e2e_pairs.py --baseline 6787be2 \\
        --output benchmarks/BENCH_nd_chunking_e2e.json
    python3 benchmarks/rzc2_e2e_pairs.py --baseline 6787be2 --traced \\
        --output benchmarks/BENCH_nd_chunking_traced.json
    # the closed-loop mgard encoder against the revision before it
    python3 benchmarks/rzc2_e2e_pairs.py --baseline 5f6ac3d \\
        --output benchmarks/BENCH_mgard_closed_loop_e2e.json
    # each leaf contract stated once (no gain claimed) against the
    # revision before it
    python3 benchmarks/rzc2_e2e_pairs.py --baseline e5d7a09 \\
        --output benchmarks/BENCH_leaf_contract_e2e.json
    # one execution tier in ``pressio serve`` (no gain claimed)
    # against the revision before it
    python3 benchmarks/rzc2_e2e_pairs.py --baseline 339f0dd \\
        --output benchmarks/BENCH_serve_one_tier_e2e.json
    # one chunk executor and one slab container for chunking, sz_omp
    # and AsyncCompressor (no gain claimed) against the revision before it
    python3 benchmarks/rzc2_e2e_pairs.py --baseline 03aa1ee \\
        --output benchmarks/BENCH_chunk_executor_e2e.json
    # one busy gate and one shared-memory view cache in ``pressio
    # serve`` (no gain claimed) against the revision before it
    python3 benchmarks/rzc2_e2e_pairs.py --baseline 77a02b2 \\
        --output benchmarks/BENCH_serve_one_gate_e2e.json
    # one option transaction (a rejected set changes nothing, a check
    # is a set on a clone; no gain claimed) against the revision before it
    python3 benchmarks/rzc2_e2e_pairs.py --baseline 6bd5571 \\
        --output benchmarks/BENCH_option_transaction_e2e.json
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

#: the default baseline: the last revision before the word-packed
#: BITPACK rewrite
BASELINE_REV = "9511da7"
#: alternating parent/change pairs per workload
PAIRS = 10
#: workload -> first seed; pair i runs seed + i on both sides
WORKLOADS = {"paper_grid": 101, "chunked_serial": 201}
SECONDS = 40
#: the seed of the ``--traced`` runs
TRACED_SEED = 301

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export_baseline(dest: str, rev: str) -> None:
    tar = subprocess.run(["git", "archive", rev], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest, filter="data")


def run_once(tree: str, workload: str, seed: int, trace: int = 0) -> dict:
    """The result line of one ``perfbench`` run in ``tree``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS),
         "--trace", str(trace)],
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
    ap.add_argument("--baseline", default=BASELINE_REV, metavar="REV",
                    help="git revision to compare the working tree "
                         f"against (default: {BASELINE_REV})")
    ap.add_argument("--output", default=None,
                    help="write the JSON artifact here (default: stdout)")
    ap.add_argument("--traced", action="store_true",
                    help="one traced run per tree and workload instead "
                         "of the pairs")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        better = {m["name"]: m["better"]
                  for m in json.load(f)["end_to_end"]}

    workloads = {}
    with tempfile.TemporaryDirectory() as parent_tree:
        export_baseline(parent_tree, args.baseline)
        trees = {"parent": parent_tree, "change": ROOT}
        if args.traced:
            for workload in WORKLOADS:
                row = {"seed": TRACED_SEED, "order": ["parent", "change"]}
                for side in row["order"]:
                    row[side] = run_once(trees[side], workload,
                                         TRACED_SEED, trace=1)
                workloads[workload] = {"runs": [row]}
            return write(args.output, {
                "schema": "pressio-traced-pairs/2",
                **environment(args.baseline), "trace": 1,
                "method": ("per workload: perfbench/run.py --seed "
                           f"{TRACED_SEED} --seconds {SECONDS} --trace 1 on "
                           "an export of the baseline revision and on the "
                           "working tree, back to back in the listed order;"
                           " one result line per run"),
                "workloads": workloads})
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

    return write(args.output, {
        "schema": "pressio-rzc2-e2e-paired/1",
        **environment(args.baseline),
        "pairs": PAIRS,
        "method": ("per workload: pair i runs perfbench with seed "
                   "first_seed + i on the baseline tree and the working "
                   "tree back to back, alternating which goes first; "
                   "medians and wins are over pairs, iqr is the "
                   "baseline's"),
        "workloads": workloads})


def environment(baseline: str) -> dict:
    return {"created_at": datetime.datetime.now(
                datetime.timezone.utc).isoformat(),
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "baseline_rev": baseline,
            "run_seconds": SECONDS}


def write(output: str | None, doc: dict) -> int:
    text = json.dumps(doc, indent=1)
    if output:
        with open(output, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
