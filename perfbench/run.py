"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_grid --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing of the
benchmark's own in the program's call paths.  ``--trace 1`` is the
separate traced run: a quarter of the time untraced, a quarter with
in-memory spans around each layer's entry points (chunked_serial adds
an eighth each of the chunked_pipeline stacks, and the in-process
workloads an eighth of served_mix against a daemon, for the serve
layer), then the paired layer ledger with half the time as its budget;
it prints the per-layer metrics and writes spans and the ledger under
``perfbench/.out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Metric
names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")
WORKLOADS = ("paper_grid", "chunked_serial", "chunked_pipeline",
             "served_mix")
#: set-up is repeated this many times and its median reported
SETUP_PASSES = 3
IMPORTS = ("repro", "repro.datasets.synthetic", "repro.meta",
           "repro.serve.client")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def time_import() -> float:
    """Wall time of a fresh interpreter importing the program."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import " + ", ".join(IMPORTS)],
                   env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def timed_setup(setup, discard):
    """Run ``setup()`` ``SETUP_PASSES`` times; returns ``(median seconds,
    state of the last pass)``.  Each earlier pass's state goes to
    ``discard``.  A first, untimed import fills the bytecode cache so a
    fresh checkout's compile is not counted as set-up.
    """
    import harness

    time_import()
    times, state = [], None
    for _ in range(SETUP_PASSES):
        if state is not None:
            discard(state)
        t0 = time.perf_counter()
        state = setup()
        times.append(time.perf_counter() - t0)
    return harness.median(times), state


def install_layer_spans(rec) -> None:
    """Wrap each layer's entry points where the program looks them up."""
    import importlib

    from repro.core.compressor import PressioCompressor
    from repro.meta import parallel, pipeline
    from repro.serve.client import ServeClient

    rec.patch(PressioCompressor, "compress", "core.compress")
    rec.patch(PressioCompressor, "decompress", "core.decompress")
    for name in ("sz", "zfp", "mgard"):
        pkg = importlib.import_module(f"repro.native.{name}")
        core = importlib.import_module(f"repro.native.{name}.core")
        # the one-shot compress looks the stages up in the core module,
        # the plugins' split-phase hooks through the package
        for owner in (core, pkg):
            rec.patch(owner, "compress_stage1", "native.stage1")
            rec.patch(owner, "compress_stage2", "native.stage2")
        rec.patch(pkg, "decompress", "native.decompress")
        rec.patch(core, "encode_residuals", "encoders.encode")
        rec.patch(core, "decode_residuals", "encoders.decode")
    regression = importlib.import_module("repro.native.sz.regression")
    rec.patch(regression, "encode_residuals", "encoders.encode")
    rec.patch(regression, "decode_residuals", "encoders.decode")
    rec.patch(parallel.ChunkingCompressor, "_compress",
              "meta.chunking.compress")
    rec.patch(parallel.ChunkingCompressor, "_decompress",
              "meta.chunking.decompress")
    rec.patch(pipeline.PipelinedCompressor, "_compress",
              "meta.pipelined.compress")
    rec.patch_executor(parallel)
    rec.patch_executor(pipeline)
    for op in ("roundtrip", "compress", "decompress"):
        rec.patch(ServeClient, op, f"serve.{op}")


def new_daemon(tag: str):
    from served import Daemon

    tmpdir = os.path.join(OUT, "tmp")
    os.makedirs(tmpdir, exist_ok=True)
    daemon = Daemon(ROOT, tmpdir, os.path.join(OUT, f"daemon-{tag}.log"))
    daemon.start()
    return daemon


def run_ledger(args, tag: str, daemon=None) -> dict:
    import ledger

    own = daemon is None
    if own:
        daemon = new_daemon(tag)
    try:
        result = ledger.run(args.seed, args.seconds / 2, daemon.port,
                            daemon.uds)
    finally:
        if own:
            daemon.stop()
    with open(os.path.join(OUT, f"ledger-{tag}.json"), "w",
              encoding="utf-8") as f:
        json.dump(result, f, indent=2)
    return result


def traced_phase(run_phase, spans_path: str):
    """Run one phase with layer spans installed; returns the recorder."""
    from spans import Recorder

    rec = Recorder()
    install_layer_spans(rec)
    try:
        run_phase()
    finally:
        rec.unpatch()
    rec.dump(spans_path)
    return rec


def run_inprocess(args, tag: str) -> tuple[dict, int, int, list[str]]:
    import harness
    import inprocess

    tally = inprocess.Tally()
    shm_before = harness.shm_segments()

    def setup():
        time_import()
        fields = inprocess.make_fields(args.seed)
        configs = inprocess.build_configs(args.workload, fields)
        inprocess.warm_up(configs, tally)
        return fields, configs

    setup_s, (fields, configs) = timed_setup(setup, lambda state: None)
    if not args.trace:
        inprocess.run_loop(configs, args.seconds, tally)
        metrics, note = inprocess.end_to_end(configs)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_MB"] = harness.peak_rss_mb()
        return metrics, tally.attempted, tally.failed, [note] + tally.errors

    metrics = traced_metrics(configs, args.seconds / 4, tally, tag)
    if args.workload == "chunked_serial":
        # the meta layer across threads: the chunked_pipeline stacks on
        # the same fields give the overlap, stage-2 wait and worker-pool
        # figures that one thread cannot
        meta_configs = inprocess.build_configs("chunked_pipeline", fields)
        inprocess.warm_up(meta_configs, tally)
        meta = traced_metrics(meta_configs, args.seconds / 8, tally,
                              f"{tag}-pipelined")
        metrics.update({k: meta[k] for k in META_METRICS})
    # the serve layer's figures: a short served_mix window against a
    # CLI-started daemon, which the ledger then uses too
    daemon = new_daemon(tag)
    try:
        serve, runs = served_phase(args, daemon, args.seconds / 8)
        metrics.update(serve)
        result = run_ledger(args, tag, daemon)
    finally:
        daemon.stop()
    for r in runs:
        tally.attempted += r.attempted
        tally.failed += r.failed
        tally.errors += r.errors
    metrics.update(result["metrics"])
    leaked = len(harness.shm_segments() - shm_before)
    metrics["serve.leaked_segments"] = float(leaked)
    if leaked:
        tally.fail(f"{leaked} shared-memory segments leaked")
    notes = list(result["answers"].values())
    return metrics, tally.attempted, tally.failed, notes + tally.errors


#: per-layer figures of the meta layer and the buffer pool under it
META_METRICS = ("meta.self_ms", "meta.stage2_wait_ms", "meta.overlap",
                "pool.hit_rate", "pool.misses")


def served_phase(args, daemon, phase_s: float):
    """served_mix's two clients for ``phase_s`` against ``daemon``, with
    every served result checked; returns the serve figures and the
    clients' tallies."""
    import served

    inputs = served.make_inputs(args.seed)
    bounds = served.abs_bounds(inputs)
    clients = served.make_clients(daemon, inputs, bounds, args.seed)
    try:
        for c in clients:
            c.produce_streams()
        metrics, _ = serve_window(clients, daemon, phase_s)
    finally:
        for c in clients:
            c.client.close()
    runs = [c.run for c in clients]
    served.verify_samples(runs, served.References(inputs, bounds))
    return metrics, runs


def serve_window(clients, daemon, phase_s: float):
    """One untraced served window with the daemon's counters read before
    and after; returns the serve figures and the window's end-to-end
    figures."""
    import harness
    import served
    from repro.serve.client import ServeClient

    with ServeClient(port=daemon.port) as probe:
        h0, m0 = probe.health(), probe.metrics_text()
        window = served.run_window(clients, phase_s)
        h1, m1 = probe.health(), probe.metrics_text()
    runs = [c.run for c in clients]
    end_to_end, _ = served.end_to_end(runs, window, 0.0)
    latencies = [t for r in runs for t in r.latencies]
    s0, c0 = served.scrape_server_seconds(m0)
    s1, c1 = served.scrape_server_seconds(m1)
    server_ms = (s1 - s0) / (c1 - c0) * 1e3 if c1 > c0 else 0.0
    hits = h1["cache"]["hits"] - h0["cache"]["hits"]
    misses = h1["cache"]["misses"] - h0["cache"]["misses"]
    return {
        "serve.server_ms": server_ms,
        "serve.transport_ms": harness.mean(latencies) * 1e3 - server_ms,
        "serve.shed_frac": (h1["shed"] - h0["shed"]) / max(len(latencies), 1),
        "serve.cache_hit_rate": hits / (hits + misses) if hits + misses
        else 0.0,
    }, end_to_end


def traced_metrics(configs, phase_s: float, tally, tag: str) -> dict:
    """An untraced then a traced phase of ``phase_s`` each over
    ``configs``: pool counters from the first, spans from the second."""
    import inprocess
    from repro.native import pool
    from spans import layer_metrics

    p0 = pool.stats()
    inprocess.run_loop(configs, phase_s, tally)
    p1 = pool.stats()
    untraced, _ = inprocess.end_to_end(configs)
    n_ops = sum(len(c.compress_s) + len(c.decompress_s) for c in configs)
    inprocess.reset_samples(configs)
    rec = traced_phase(
        lambda: inprocess.run_loop(configs, phase_s, tally),
        os.path.join(OUT, f"spans-{tag}.jsonl"))
    traced, _ = inprocess.end_to_end(configs)
    metrics = layer_metrics(
        rec.spans, sum(len(c.compress_s) for c in configs),
        sum(len(c.decompress_s) for c in configs))
    hits = p1["hits"] - p0["hits"]
    misses = p1["misses"] - p0["misses"]
    metrics["pool.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["pool.misses"] = misses / n_ops if n_ops else 0.0
    metrics["trace.overhead_pct"] = overhead_pct(untraced, traced)
    return metrics


def overhead_pct(untraced: dict, traced: dict) -> float:
    """Tracing overhead: untraced over traced throughput, as the
    geometric mean of compress and decompress (each already a
    per-configuration geometric mean, so the mix of configurations a
    phase happened to cover does not enter)."""
    u = (untraced["compress_MBps"] * untraced["decompress_MBps"]) ** 0.5
    t = (traced["compress_MBps"] * traced["decompress_MBps"]) ** 0.5
    return (u / t - 1.0) * 100.0 if t else 0.0


def run_served(args, tag: str) -> tuple[dict, int, int, list[str]]:
    import harness
    import served

    shm_before = harness.shm_segments()
    runs = []  # every client's tally, discarded set-up passes included

    def setup():
        time_import()
        inputs = served.make_inputs(args.seed)
        bounds = served.abs_bounds(inputs)
        daemon = new_daemon(tag)
        clients = []
        try:
            clients = served.make_clients(daemon, inputs, bounds, args.seed)
            runs.extend(c.run for c in clients)
            for c in clients:
                c.produce_streams()
            for c in clients:
                for spec in c.specs[:64]:
                    c.request(spec)
                c.run.reset_samples()
        except BaseException:
            teardown((daemon, clients))
            raise
        return daemon, clients, inputs, bounds

    def teardown(state):
        daemon, clients = state[:2]
        for c in clients:
            c.client.close()
        if daemon.stop() != 0:
            runs[0].fail(f"daemon exited with {daemon.exit_code}")

    state = None
    try:
        setup_s, state = timed_setup(setup, teardown)
        daemon, clients, inputs, bounds = state
        ratio = served.stream_ratio(clients[0])
        metrics, notes = (served_end_to_end if not args.trace
                          else served_traced)(args, tag, clients, daemon,
                                              ratio)
    finally:
        if state is not None:
            teardown(state)
    leaked = len(harness.shm_segments() - shm_before)
    if leaked:
        runs[0].fail(f"{leaked} shared-memory segments leaked")
    served.verify_samples(runs, served.References(inputs, bounds))
    if args.trace:
        metrics["serve.leaked_segments"] = float(leaked)
    else:
        metrics["setup_s"] = setup_s
        metrics["peak_rss_MB"] = harness.peak_rss_mb(include_children=True)
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    return metrics, attempted, failed, notes + [e for r in runs
                                                for e in r.errors]


def served_end_to_end(args, tag, clients, daemon, ratio):
    import served

    window = served.run_window(clients, args.seconds)
    metrics, note = served.end_to_end([c.run for c in clients], window,
                                      ratio)
    return metrics, [note]


def served_traced(args, tag, clients, daemon, ratio):
    import served
    from spans import layer_metrics

    phase = args.seconds / 4
    metrics, untraced = serve_window(clients, daemon, phase)
    for c in clients:
        c.run.reset_samples()
    holder = {}
    rec = traced_phase(
        lambda: holder.setdefault("w", served.run_window(clients, phase)),
        os.path.join(OUT, f"spans-{tag}.jsonl"))
    traced, _ = served.end_to_end([c.run for c in clients], holder["w"],
                                  ratio)
    metrics.update(layer_metrics(rec.spans, 0, 0))
    metrics.update({"pool.hit_rate": 0.0, "pool.misses": 0.0})
    metrics["trace.overhead_pct"] = overhead_pct(untraced, traced)
    result = run_ledger(args, tag, daemon)
    metrics.update(result["metrics"])
    return metrics, list(result["answers"].values())


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runner = run_served if args.workload == "served_mix" else run_inprocess
    try:
        metrics, attempted, failed, notes = runner(args, tag)
    finally:
        from served import stop_resource_tracker

        # started by the first shared-memory segment any client made
        stop_resource_tracker()
    if args.trace:
        metrics["failed_ops_frac"] = failed / max(attempted, 1)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    for line in notes:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
