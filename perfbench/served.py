"""The ``served_mix`` workload and the ``pressio serve`` daemon child.

The daemon is started through the CLI (``pressio serve --workers 2``,
metrics registry on, as by default) in its own session, so that the
benchmark can reap it and every process it started (CPython's
shared-memory resource tracker among them).  One benchmark process runs
two closed-loop clients on two threads: one hands payloads over shared
memory on the unix socket, the other sends them inline over TCP.  They
send a seeded mix of 24^3 requests over nyx, scale_letkf and CLOUD
fields: roundtrip, compress, and decompress of streams the client
produced earlier; sz (serialized in the daemon) and zfp (re-entrant);
mostly ``cache=bypass`` plus a small share of repeated fields with
``cache=use``.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import selectors
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import harness

FIELDS = ("nyx", "scale_letkf", "cloud")
DIMS = (24, 24, 24)
VARIANTS = 4
COMPRESSORS = ("sz", "zfp")
REL_BOUNDS = (1e-4, 1e-2)
OPS = (("roundtrip", 0.4), ("compress", 0.3), ("decompress", 0.3))
#: share of compress/roundtrip requests that repeat variant 0 of a
#: field with ``cache=use``, so the daemon's artifact cache sees hits
CACHE_USE_SHARE = 0.1
#: share of requests whose result is byte-compared with in-process
SAMPLE_SHARE = 0.125
#: the generator seed of the one realization every benchmark seed uses
REALIZATION = 7
DAEMON_WORKERS = 2
SPECS_PER_CLIENT = 4096
#: the window is cut into this many equal slices for rate and latency
SLICES = 10


def make_inputs(seed: int) -> dict[tuple[str, int], np.ndarray]:
    """Seeded variants of one realization per field.

    As for the in-process workloads, the seed picks shifts and mirrors
    along each generator's periodic axes rather than new realizations,
    whose difficulty varies too much between seeds.
    """
    from repro.datasets import synthetic

    rng = np.random.default_rng(seed)
    base = {"nyx": (synthetic.nyx, (0, 1, 2)),
            "scale_letkf": (synthetic.scale_letkf, (1, 2)),
            "cloud": (synthetic.hurricane_cloud, (1, 2))}
    inputs = {}
    for name in FIELDS:
        gen, axes = base[name]
        arr = gen(DIMS, seed=REALIZATION)
        for v in range(VARIANTS):
            inputs[(name, v)] = harness.shift_and_mirror(arr, axes, rng)
    return inputs


def abs_bounds(inputs) -> dict:
    out = {}
    for key, arr in inputs.items():
        value_range = float(arr.max() - arr.min())
        for b, rel in enumerate(REL_BOUNDS):
            out[key + (b,)] = rel * value_range
    return out


@dataclass(frozen=True)
class Spec:
    op: str
    field: str
    variant: int
    compressor: str
    bound: int
    cache: str
    sample: bool


def make_specs(seed: int, n: int = SPECS_PER_CLIENT) -> list[Spec]:
    rng = random.Random(seed)
    ops, weights = zip(*OPS)
    specs = []
    for _ in range(n):
        op = rng.choices(ops, weights)[0]
        cache = "bypass"
        variant = rng.randrange(VARIANTS)
        if op != "decompress" and rng.random() < CACHE_USE_SHARE:
            cache, variant = "use", 0
        specs.append(Spec(op=op, field=rng.choice(FIELDS), variant=variant,
                          compressor=rng.choice(COMPRESSORS),
                          bound=rng.randrange(len(REL_BOUNDS)), cache=cache,
                          sample=rng.random() < SAMPLE_SHARE))
    return specs


# -- daemon lifecycle ----------------------------------------------------------
class Daemon:
    """A ``pressio serve`` child process started through the CLI."""

    def __init__(self, root: str, tmpdir: str, log_path: str) -> None:
        self.root = root
        self.tmpdir = tmpdir
        self.log_path = log_path
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.uds: str | None = None
        self.exit_code: int | None = None

    def start(self, timeout: float = 60.0) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        # the unix socket lands in TMPDIR; keep it inside the checkout
        env["TMPDIR"] = self.tmpdir
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-u", "-m", "repro.tools.cli", "serve",
                 "--port", "0", "--workers", str(DAEMON_WORKERS)],
                cwd=self.root, env=env, stdout=subprocess.PIPE, stderr=log,
                stdin=subprocess.DEVNULL, start_new_session=True)
        line = self._read_line(timeout)
        marker = "pressio serve on http://127.0.0.1:"
        if marker not in line:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.port = int(line.split(marker, 1)[1].split()[0])
        from repro.serve.client import ServeClient

        with ServeClient(port=self.port) as probe:
            self.uds = probe.health().get("uds")

    def _read_line(self, timeout: float) -> str:
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            if not sel.select(timeout):
                return ""
            return self.proc.stdout.readline().decode("utf-8", "replace")
        finally:
            sel.close()

    def stop(self, timeout: float = 20.0) -> int:
        """SIGINT (the daemon's clean shutdown), then reap the session."""
        proc = self.proc
        if proc is None:
            return 0
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout)
        proc.stdout.close()
        self.exit_code = proc.returncode
        reap_session(proc.pid)
        self.proc = None
        return self.exit_code


def _session_members(sid: int) -> list[int]:
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as f:
                stat = f.read().decode("ascii", "replace")
        except OSError:
            continue
        # fields after the parenthesised command: state ppid pgrp session
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[3]) == sid:
            pids.append(int(entry))
    return pids


def reap_session(sid: int, timeout: float = 10.0) -> None:
    """Wait until no process of session ``sid`` remains; kill stragglers.

    The daemon's own children (its resource tracker) exit once the
    daemon has gone; this waits for that rather than leaving them.
    """
    if not os.path.isdir("/proc"):
        return
    deadline = time.monotonic() + timeout
    killed = False
    while True:
        members = _session_members(sid)
        if not members:
            return
        if time.monotonic() > deadline:
            if killed:
                raise RuntimeError(f"session {sid} survives: {members}")
            for pid in members:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed = True
            deadline = time.monotonic() + timeout
        time.sleep(0.02)


def stop_resource_tracker() -> None:
    """Stop this process's shared-memory resource tracker child."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


# -- the client loops ------------------------------------------------------------
@dataclass
class ClientRun:
    transport: str
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    #: perf_counter at which each timed request completed
    finished: list = field(default_factory=list)
    #: (op, compressor, field, bound) -> [MB/s], cache=bypass only
    rates: dict = field(default_factory=dict)
    samples: list = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def reset_samples(self) -> None:
        """Drop timings (not failures or byte-compare samples)."""
        self.latencies.clear()
        self.finished.clear()
        self.rates.clear()


def _digest(buf) -> bytes:
    return hashlib.blake2b(memoryview(buf).cast("B"), digest_size=16).digest()


class MixClient:
    """One closed-loop client over one transport."""

    def __init__(self, client, transport: str, inputs, bounds,
                 specs: list[Spec]) -> None:
        self.client = client
        self.inputs = inputs
        self.bounds = bounds
        self.specs = specs
        self.streams: dict[tuple, bytes] = {}
        self.run = ClientRun(transport)
        self._next = itertools.cycle(specs)

    def produce_streams(self) -> None:
        """Compress every input once; decompress requests reuse these."""
        for key in self.inputs:
            for comp in COMPRESSORS:
                for b in range(len(REL_BOUNDS)):
                    blob, _ = self.client.compress(
                        self.inputs[key], comp,
                        {"pressio:abs": self.bounds[key + (b,)]})
                    self.streams[(comp,) + key + (b,)] = blob

    def loop(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            self.request(next(self._next))

    def request(self, s: Spec) -> None:
        run = self.run
        key = (s.field, s.variant)
        arr = self.inputs[key]
        bound = self.bounds[key + (s.bound,)]
        opts = {"pressio:abs": bound}
        skey = (s.compressor,) + key + (s.bound,)
        run.attempted += 1
        sent = None
        try:
            t0 = time.perf_counter()
            if s.op == "roundtrip":
                out, _ = self.client.roundtrip(arr, s.compressor, opts,
                                               cache=s.cache, copy=False)
            elif s.op == "compress":
                out, _ = self.client.compress(arr, s.compressor, opts,
                                              cache=s.cache)
            else:
                sent = self.streams[skey]
                out, _ = self.client.decompress(sent, s.compressor,
                                                "float64", DIMS,
                                                options=opts, copy=False)
            t1 = time.perf_counter()
        except Exception as e:  # noqa: BLE001 - counted, never retried
            run.fail(f"{run.transport} {s.op} {skey}: "
                     f"{type(e).__name__}: {e}")
            return
        if s.op == "compress":
            if not len(out):
                run.fail(f"{run.transport} compress {skey}: empty stream")
                return
            self.streams[skey] = out
        elif not harness.max_abs_error_ok(arr, out, bound):
            run.fail(f"{run.transport} {s.op} {skey}: error bound violated")
            return
        run.latencies.append(t1 - t0)
        run.finished.append(t1)
        if s.cache == "bypass" and s.op != "roundtrip":
            run.rates.setdefault((s.op, s.compressor, s.field, s.bound),
                                 []).append(arr.nbytes / (t1 - t0) / 1e6)
        if s.sample:
            run.samples.append((s.op, skey, sent, _digest(out)))


def make_clients(daemon, inputs, bounds, seed: int) -> list[MixClient]:
    """The shm client (unix socket when the daemon has one) and the
    inline TCP client, each with its own seeded request sequence."""
    from repro.serve.client import ServeClient

    return [
        MixClient(ServeClient(port=daemon.port, use_shm=True,
                              uds=daemon.uds),
                  "shm", inputs, bounds, make_specs(seed * 2 + 1)),
        MixClient(ServeClient(port=daemon.port), "inline", inputs, bounds,
                  make_specs(seed * 2 + 2)),
    ]


class References:
    """In-process results for the byte comparison, memoized per key."""

    def __init__(self, inputs, bounds) -> None:
        from repro import Pressio

        self.library = Pressio()
        self.inputs = inputs
        self.bounds = bounds
        self.plugins: dict[tuple, object] = {}
        self.memo: dict[tuple, bytes] = {}

    def _plugin(self, comp: str, bound: float):
        key = (comp, bound)
        plugin = self.plugins.get(key)
        if plugin is None:
            plugin = self.library.get_compressor(comp)
            if plugin.set_options({"pressio:abs": bound}) != 0:
                raise RuntimeError(plugin.error_msg())
            self.plugins[key] = plugin
        return plugin

    def digest(self, op: str, skey: tuple, sent: bytes | None) -> bytes:
        from repro import PressioData

        comp, field_name, variant, b = skey
        arr = self.inputs[(field_name, variant)]
        plugin = self._plugin(comp, self.bounds[(field_name, variant, b)])
        data = PressioData.from_numpy(arr)
        template = PressioData.empty(data.dtype, data.dims)
        if op == "decompress":
            out = plugin.decompress(PressioData.from_bytes(sent), template)
            return _digest(np.ascontiguousarray(out.to_numpy()))
        memo_key = (op, skey)
        hit = self.memo.get(memo_key)
        if hit is None:
            stream = plugin.compress(data)
            if op == "compress":
                hit = _digest(stream.to_bytes())
            else:
                out = plugin.decompress(stream, template)
                hit = _digest(np.ascontiguousarray(out.to_numpy()))
            self.memo[memo_key] = hit
        return hit


def verify_samples(runs: list[ClientRun], refs: References) -> None:
    """Byte-compare the sampled served results with in-process ones."""
    for run in runs:
        for op, skey, sent, digest in run.samples:
            if refs.digest(op, skey, sent) != digest:
                run.fail(f"{run.transport} {op} {skey}: served bytes differ "
                         f"from in-process")


def run_window(clients: list[MixClient], seconds: float
               ) -> tuple[float, float]:
    """Both clients in closed loops on their own threads for ``seconds``;
    returns the window's ``(start, duration)``."""
    start = time.perf_counter()
    deadline = start + seconds
    threads = [threading.Thread(target=c.loop, args=(deadline,),
                                name=f"client-{c.run.transport}")
               for c in clients]
    for t in threads:
        t.start()
    for t in threads:
        t.join(seconds + 120)
        if t.is_alive():
            raise RuntimeError(f"{t.name} did not finish")
    return start, time.perf_counter() - start


def end_to_end(runs: list[ClientRun], window: tuple[float, float],
               ratio: float) -> tuple[dict, str]:
    """Request rate and latency are medians over ``SLICES`` equal slices
    of the window, so a burst of machine noise in one slice does not set
    the run's figure; each slice holds thousands of requests, enough for
    its own p99."""
    start, duration = window
    width = duration / SLICES
    slices: list[list[float]] = [[] for _ in range(SLICES)]
    for r in runs:
        for done, latency in zip(r.finished, r.latencies):
            slices[min(int((done - start) / width), SLICES - 1)].append(
                latency)
    tails = [harness.tail_latency(s) for s in slices if s]
    n = sum(len(s) for s in slices)

    def rate(op):
        return harness.geomean(
            harness.median(v) for r in runs
            for k, v in r.rates.items() if k[0] == op)

    metrics = {
        "compress_MBps": rate("compress"),
        "decompress_MBps": rate("decompress"),
        "compression_ratio": ratio,
        "requests_per_s": harness.median(len(s) / width for s in slices),
        "request_p50_ms": harness.median(harness.median(s)
                                         for s in slices if s) * 1e3,
        "request_p99_ms": harness.median(v for _, v, _ in tails) * 1e3,
    }
    q = min((q for q, _, _ in tails), default=0.99)
    note = (f"requests: n={n} served requests over {duration:.1f}s in "
            f"{SLICES} slices of at least {min(map(len, slices))}; "
            f"request_p99_ms is the median of per-slice p{q * 100:.1f}")
    return metrics, note


def stream_ratio(client: MixClient) -> float:
    total_in = sum(client.inputs[k[1:3]].nbytes for k in client.streams)
    total_out = sum(len(v) for v in client.streams.values())
    return total_in / total_out if total_out else 0.0


def scrape_server_seconds(text: str) -> tuple[float, float]:
    """Sum and count of ``pressio_serve_request_seconds`` over labels."""
    total = count = 0.0
    for line in text.splitlines():
        if line.startswith("pressio_serve_request_seconds_sum"):
            total += float(line.rsplit(None, 1)[1])
        elif line.startswith("pressio_serve_request_seconds_count"):
            count += float(line.rsplit(None, 1)[1])
    return total, count
