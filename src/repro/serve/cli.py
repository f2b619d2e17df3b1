"""The ``pressio serve`` and ``pressio client`` subcommands.

``pressio serve`` runs the compression daemon in the foreground::

    pressio serve --port 9870 --workers 8 \\
        --quota-rate 200 --quota-burst 50 \\
        --tenant-quota gold=1000:200

``pressio client`` drives a running daemon for scripted load::

    pressio client --port 9870 roundtrip --compressor sz \\
        --option pressio:abs=1e-4 --synthetic nyx --dims 24,24,24 \\
        --repeat 100 --shm

Both share the repo-wide CLI conventions: repeatable ``--option
KEY=VALUE`` with int/float inference, ``--synthetic``/``--dims`` data
selection, and the ``--auto-port`` port-0 fallback shared with
``serve-metrics``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

__all__ = ["build_serve_parser", "build_client_parser",
           "run_serve", "run_client"]


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pressio serve",
        description="serve compress/decompress/roundtrip for every "
                    "registered compressor over pressio-serve/1",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=9870,
                        help="bind port; 0 picks a free one (default 9870)")
    parser.add_argument("--auto-port", action="store_true",
                        help="if the requested port is taken, fall back "
                             "to an OS-assigned one and print it")
    parser.add_argument("--workers", type=int, default=4,
                        help="operations executed at once")
    parser.add_argument("--max-inflight", type=int, default=64,
                        help="requests holding or waiting for an execution "
                             "permit at once; past it requests are shed "
                             "with 503 + Retry-After")
    parser.add_argument("--quota-rate", type=float, default=0.0,
                        help="default per-tenant requests/second "
                             "(0 disables quotas)")
    parser.add_argument("--quota-burst", type=float, default=0.0,
                        help="default per-tenant burst size")
    parser.add_argument("--tenant-quota", action="append", default=[],
                        metavar="TENANT=RATE:BURST",
                        help="per-tenant quota override (repeatable)")
    parser.add_argument("--cache-bytes", type=int, default=64 << 20,
                        help="artifact cache capacity in bytes "
                             "(0 disables the cache)")
    parser.add_argument("--max-payload", type=int, default=256 << 20,
                        help="largest accepted payload, and largest "
                             "decompressed output, in bytes")
    parser.add_argument("--duration", type=float, default=None,
                        help="serve for N seconds then exit "
                             "(default: until interrupted)")
    parser.add_argument("--no-metrics", action="store_true",
                        help="do not enable the obs metrics registry")
    parser.add_argument("--allow-fault-injection", action="store_true",
                        help="honor the frame 'fault' field (testing only)")
    parser.add_argument("--json-logs", action="store_true",
                        help="emit structured JSON logs on stderr")
    return parser


def _parse_tenant_quotas(specs: list[str]) -> dict[str, tuple[float, float]]:
    quotas: dict[str, tuple[float, float]] = {}
    for spec in specs:
        try:
            tenant, _, rhs = spec.partition("=")
            rate_s, _, burst_s = rhs.partition(":")
            quotas[tenant] = (float(rate_s), float(burst_s or rate_s))
        except ValueError:
            raise SystemExit(
                f"bad --tenant-quota {spec!r}; want TENANT=RATE:BURST"
            ) from None
    return quotas


def run_serve(argv: list[str]) -> int:
    """The ``pressio serve`` subcommand."""
    from .. import obs
    from .daemon import ServeServer
    from .quota import QuotaManager

    args = build_serve_parser().parse_args(argv)
    if args.json_logs:
        obs.configure_logging()
    if not args.no_metrics:
        obs.enable_metrics()
    quota = QuotaManager(rate=args.quota_rate, burst=args.quota_burst,
                         tenants=_parse_tenant_quotas(args.tenant_quota))
    server = ServeServer(
        host=args.host, port=args.port, auto_port=args.auto_port,
        workers=args.workers, max_inflight=args.max_inflight,
        quota=quota, cache_bytes=args.cache_bytes,
        max_payload=args.max_payload,
        allow_fault_injection=args.allow_fault_injection)
    try:
        server.start()
    except obs.PortInUseError as e:
        print(f"error: {e} (retry with --auto-port to pick a free one)",
              file=sys.stderr)
        return 1
    if args.auto_port and args.port not in (0, server.port):
        print(f"port {args.port} in use; bound port {server.port} instead")
    print(f"pressio serve on {server.url} "
          f"({args.workers} workers, max {args.max_inflight} in flight)")
    deadline = (time.monotonic() + args.duration
                if args.duration is not None else None)
    try:
        while deadline is None or time.monotonic() < deadline:
            time.sleep(min(1.0, (deadline - time.monotonic())
                           if deadline is not None else 1.0) or 0.01)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def build_client_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pressio client",
        description="drive a running pressio serve daemon",
    )
    parser.add_argument("op", choices=("compress", "roundtrip", "ping",
                                       "health", "compressors"),
                        help="operation to run")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True,
                        help="daemon port")
    parser.add_argument("--tenant", default="default",
                        help="tenant id for quota/metric attribution")
    parser.add_argument("--compressor", "-z", default=None,
                        help="compressor plugin id")
    parser.add_argument("--option", "-o", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="set a compressor option (repeatable)")
    parser.add_argument("--synthetic", default="nyx",
                        help="synthetic dataset id (default nyx)")
    parser.add_argument("--dims", "-d", default="24,24,24",
                        help="comma-separated dims (default 24,24,24)")
    parser.add_argument("--input", "-i", default=None,
                        help="read a .npy file instead of --synthetic")
    parser.add_argument("--shm", action="store_true",
                        help="hand payloads through shared memory "
                             "(zero-copy) instead of inline frames")
    parser.add_argument("--cache", choices=("bypass", "use", "refresh"),
                        default="bypass", help="artifact-cache directive")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the operation N times (scripted load)")
    parser.add_argument("--json", action="store_true",
                        help="print one JSON object per request")
    return parser


def _client_array(args) -> np.ndarray:
    if args.input:
        return np.load(args.input)
    from ..datasets import DATASET_GENERATORS

    gen = DATASET_GENERATORS.get(args.synthetic)
    if gen is None:
        raise SystemExit(f"unknown synthetic dataset {args.synthetic!r}; "
                         f"known: {sorted(DATASET_GENERATORS)}")
    dims = tuple(int(d) for d in args.dims.split(","))
    return np.asarray(gen(dims) if args.synthetic != "hacc" else gen())


def run_client(argv: list[str]) -> int:
    """The ``pressio client`` subcommand."""
    from ..tools.cli import _parse_option_value
    from .client import ServeClient
    from .errors import ServeError

    args = build_client_parser().parse_args(argv)
    options = {}
    for raw in args.option:
        key, _, value = raw.partition("=")
        options[key] = _parse_option_value(value)
    client = ServeClient(host=args.host, port=args.port,
                         tenant=args.tenant, use_shm=args.shm)
    try:
        if args.op == "ping":
            print(json.dumps({"ok": client.ping()}))
            return 0
        if args.op == "health":
            print(json.dumps(client.health(), indent=2))
            return 0
        if args.op == "compressors":
            print("\n".join(client.compressors()))
            return 0
        if not args.compressor:
            print("error: --compressor is required for this op",
                  file=sys.stderr)
            return 2
        array = _client_array(args)
        failures = 0
        durations = []
        for i in range(max(args.repeat, 1)):
            start = time.perf_counter()
            try:
                if args.op == "compress":
                    _, stats = client.compress(array, args.compressor,
                                               options, cache=args.cache)
                else:
                    _, stats = client.roundtrip(array, args.compressor,
                                                options, cache=args.cache)
            except ServeError as e:
                failures += 1
                stats = {"error": e.etype, "message": e.message}
                if e.retry_after_s:
                    time.sleep(e.retry_after_s)
            elapsed_ms = (time.perf_counter() - start) * 1e3
            durations.append(elapsed_ms)
            if args.json:
                print(json.dumps({"i": i, "elapsed_ms": round(elapsed_ms, 3),
                                  **stats}))
        durations.sort()
        median = durations[len(durations) // 2]
        print(f"{args.op} x{args.repeat}: median {median:.3f} ms, "
              f"{failures} failures")
        return 0 if failures == 0 else 1
    except ConnectionError as e:
        print(f"error: cannot reach {args.host}:{args.port}: {e}",
              file=sys.stderr)
        return 1
    finally:
        client.close()
