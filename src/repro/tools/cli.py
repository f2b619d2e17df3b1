"""The ``pressio`` command line tool (LibPressio-Tools analog).

One CLI serves *every* registered compressor, IO format, and metric —
the compressor-agnostic tooling claim from the paper's introduction.
Unlike the single-compressor CLIs it replaces (sz/zfp/mgard each ship
their own), this one can also read/write container formats (hdf5mini)
and print introspection data.

Examples::

    pressio --list
    pressio --compressor sz --synthetic nyx --dims 48,48,48 \
            --option sz:error_bound_mode_str=abs \
            --option sz:abs_err_bound=1e-4 \
            --metrics size,time,error_stat --print-metrics
    pressio --compressor zfp --input data.npy --input-format numpy \
            --option zfp:accuracy=1e-3 --save-compressed out.zfp

The ``trace`` subcommand round-trips a dataset with span tracing on and
prints the span tree plus a per-plugin aggregate report; ``--jsonl`` and
``--chrome-trace`` export the raw events (the latter opens in
``chrome://tracing`` / Perfetto)::

    pressio trace --compressor chunking \
            --option chunking:compressor=sz_threadsafe \
            --option pressio:abs=1e-4 \
            --synthetic nyx --dims 32,32,32 \
            --jsonl trace.jsonl --chrome-trace chrome.json

The ``serve-metrics`` subcommand exposes the process on ``/metrics``
(Prometheus text format) and ``/healthz``; ``bench`` runs the
compressor x dataset x bound grid, writes a timestamped
``BENCH_<date>.json``, and prints a regression verdict against the
previous artifact (``--profile`` captures a stage profile per
configuration so a firing gate names the guilty stage)::

    pressio serve-metrics --port 9100 --demo
    pressio bench --quick --output-dir bench-results

The ``profile`` subcommand attributes a round trip to pipeline stages
(exclusive/inclusive time, bandwidth, allocations), writes flamegraph
input, and diffs two profile artifacts by stage path::

    pressio profile --compressor sz --synthetic nyx --dims 32,32,32 \
            --option pressio:abs=1e-4 --flamegraph prof.folded
    pressio profile --diff before.json after.json

The ``conformance`` subcommand verifies every registered compressor
(and representative meta-compressor stacks) against its advertised
contract: error-bound oracles, differential stack checks, stream-shape
contracts, seeded API sequences, and golden-stream byte stability::

    pressio conformance --all
    pressio conformance --smoke --json verdicts.json
    pressio conformance --self-test
    pressio conformance --regen-golden
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from ..core.data import PressioData
from ..core.dtype import dtype_from_numpy
from ..core.library import Pressio
from ..core.options import PressioOptions

__all__ = ["main", "build_parser", "build_trace_parser",
           "build_serve_metrics_parser", "run", "run_trace",
           "run_serve_metrics"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pressio",
        description="generic lossy/lossless compression for dense tensors",
    )
    parser.add_argument("--list", action="store_true",
                        help="list available compressors, metrics, and io")
    parser.add_argument("--compressor", "-z", default=None,
                        help="compressor plugin id")
    _add_input_arguments(parser, "use a synthetic dataset instead of --input "
                                "(hurricane_cloud, nyx, hacc, scale_letkf)")
    parser.add_argument("--metrics", "-m", default="size,time",
                        help="comma-separated metric plugin ids")
    parser.add_argument("--print-metrics", "-M", action="store_true",
                        help="print metric results after the round trip")
    parser.add_argument("--print-options", action="store_true",
                        help="print the compressor's options and exit")
    parser.add_argument("--print-config", action="store_true",
                        help="print the compressor's configuration and exit")
    parser.add_argument("--print-docs", action="store_true",
                        help="print the compressor's documentation and exit")
    parser.add_argument("--save-compressed", "-c", default=None,
                        help="write the compressed stream to this path")
    parser.add_argument("--save-decompressed", "-w", default=None,
                        help="write the decompressed data to this path")
    parser.add_argument("--output-format", "-W", default="posix",
                        help="io plugin for --save-decompressed")
    parser.add_argument("--no-decompress", action="store_true",
                        help="skip the decompression phase")
    return parser


def _add_input_arguments(parser: argparse.ArgumentParser,
                        synthetic_help: str = "use a synthetic dataset "
                                              "instead of --input") -> None:
    """The dataset and ``--option`` arguments of every round-trip
    subcommand (read back by :func:`_load_input` and :func:`_configure`)."""
    parser.add_argument("--input", "-i", default=None, help="input path")
    parser.add_argument("--input-format", "-I", default="posix",
                        help="io plugin for reading (posix, numpy, csv, ...)")
    parser.add_argument("--synthetic", default=None, help=synthetic_help)
    parser.add_argument("--dtype", "-t", default="float64",
                        help="element type for typeless formats")
    parser.add_argument("--dims", "-d", default=None,
                        help="comma-separated dims for typeless formats")
    parser.add_argument("--option", "-o", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="set a compressor option (repeatable)")


def _configure(compressor, entries: list[str]) -> bool:
    """Apply ``--option KEY=VALUE`` entries; prints the error and
    returns False on failure (a rejected set changes nothing)."""
    options = PressioOptions()
    for entry in entries:
        if "=" not in entry:
            print(f"error: bad --option {entry!r}, expected KEY=VALUE",
                  file=sys.stderr)
            return False
        key, _, raw = entry.partition("=")
        options.set(key, _parse_option_value(raw))
    if len(options) and compressor.set_options(options) != 0:
        print(f"error: {compressor.error_msg()}", file=sys.stderr)
        return False
    return True


def _parse_option_value(raw: str):
    """Infer int/float/string from a KEY=VALUE right-hand side."""
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def _load_input(args, library: Pressio) -> PressioData:
    if args.synthetic:
        from ..datasets import DATASET_GENERATORS

        gen = DATASET_GENERATORS.get(args.synthetic)
        if gen is None:
            raise SystemExit(
                f"unknown synthetic dataset {args.synthetic!r}; "
                f"known: {sorted(DATASET_GENERATORS)}"
            )
        if args.dims and args.synthetic != "hacc":
            dims = tuple(int(d) for d in args.dims.split(","))
            arr = gen(dims)
        else:
            arr = gen()
        return PressioData.from_numpy(np.asarray(arr), copy=False)
    if not args.input:
        raise SystemExit("one of --input or --synthetic is required")
    io = library.get_io(args.input_format)
    if io is None:
        raise SystemExit(f"unknown io plugin: {library.error_msg()}")
    io.set_options({"io:path": args.input})
    template = None
    if args.dims:
        dims = tuple(int(d) for d in args.dims.split(","))
        template = PressioData.empty(
            dtype_from_numpy(np.dtype(args.dtype)), dims)
    return io.read(template)


def _print_options(title: str, options: PressioOptions) -> None:
    print(f"{title}:")
    for key in sorted(options.keys()):
        opt = options.get_option(key)
        value = opt.get() if opt.has_value() else "<unset>"
        print(f"  {key} = {value!r} ({opt.type.name})")


def build_trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pressio trace",
        description="round-trip a dataset with span tracing and report "
                    "where the time went",
    )
    parser.add_argument("--compressor", "-z", required=True,
                        help="compressor plugin id")
    _add_input_arguments(parser)
    parser.add_argument("--no-decompress", action="store_true",
                        help="trace the compression phase only")
    parser.add_argument("--jsonl", default=None,
                        help="write the span/counter event log to this path")
    parser.add_argument("--chrome-trace", default=None,
                        help="write chrome://tracing JSON to this path")
    parser.add_argument("--no-tree", action="store_true",
                        help="skip printing the span tree")
    parser.add_argument("--no-report", action="store_true",
                        help="skip printing the aggregate report")
    return parser


def run_trace(argv: list[str]) -> int:
    """The ``pressio trace`` subcommand."""
    from ..trace import (format_report, render_tree, tracing,
                         write_chrome_trace, write_jsonl)

    args = build_trace_parser().parse_args(argv)
    library = Pressio()
    compressor = library.get_compressor(args.compressor)
    if compressor is None:
        print(f"error: {library.error_msg()}", file=sys.stderr)
        return 2
    if not _configure(compressor, args.option):
        return 2

    input_data = _load_input(args, library)
    with tracing() as trace:
        compressed = compressor.compress(input_data)
        if not args.no_decompress:
            template = PressioData.empty(input_data.dtype, input_data.dims)
            compressor.decompress(compressed, template)

    if not args.no_tree:
        print("span tree:")
        print(render_tree(trace))
    if not args.no_report:
        if not args.no_tree:
            print()
        print(format_report(trace))
    if args.jsonl:
        lines = write_jsonl(trace, args.jsonl)
        print(f"wrote {lines} events to {args.jsonl}")
    if args.chrome_trace:
        events = write_chrome_trace(trace, args.chrome_trace)
        print(f"wrote {events} chrome trace events to {args.chrome_trace}")
    return 0


def build_serve_metrics_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pressio serve-metrics",
        description="serve /metrics (Prometheus text format) and "
                    "/healthz for this process",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=9100,
                        help="bind port; 0 picks a free one (default 9100)")
    parser.add_argument("--duration", type=float, default=None,
                        help="serve for N seconds then exit "
                             "(default: until interrupted)")
    parser.add_argument("--demo", action="store_true",
                        help="run a synthetic round-trip workload so the "
                             "endpoint has live data")
    parser.add_argument("--demo-interval", type=float, default=2.0,
                        help="seconds between demo round trips")
    parser.add_argument("--json-logs", action="store_true",
                        help="emit structured JSON logs on stderr")
    parser.add_argument("--auto-port", action="store_true",
                        help="if the requested port is taken, fall back "
                             "to an OS-assigned one and print it")
    return parser


def run_serve_metrics(argv: list[str]) -> int:
    """The ``pressio serve-metrics`` subcommand."""
    import time as _time

    from .. import obs

    args = build_serve_metrics_parser().parse_args(argv)
    if args.json_logs:
        obs.configure_logging()
    try:
        # the port-0 fallback lives inside bind_with_fallback, the same
        # path `pressio serve` binds through — neither CLI rolls its own
        server = obs.start_server(port=args.port, host=args.host,
                                  auto_port=args.auto_port)
    except obs.PortInUseError as e:
        print(f"error: {e} (retry with --auto-port to pick a "
              f"free one)", file=sys.stderr)
        return 1
    if args.auto_port and args.port not in (0, server.port):
        print(f"port {args.port} in use; bound port {server.port} instead")
    print(f"serving metrics on {server.url}/metrics "
          f"(health: {server.url}/healthz)")
    deadline = (_time.monotonic() + args.duration
                if args.duration is not None else None)
    try:
        if args.demo:
            library = Pressio()
            compressor = library.get_compressor("sz")
            compressor.set_options({"pressio:abs": 1e-4})
            from ..datasets import nyx

            data = PressioData.from_numpy(nyx((24, 24, 24)), copy=False)
            template = PressioData.empty(data.dtype, data.dims)
            while deadline is None or _time.monotonic() < deadline:
                compressed = compressor.compress(data)
                compressor.decompress(compressed, template)
                _time.sleep(args.demo_interval)
        elif deadline is not None:
            _time.sleep(max(0.0, deadline - _time.monotonic()))
        else:
            while True:
                _time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def run(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "trace":
        return run_trace(argv[1:])
    if argv and argv[0] == "serve-metrics":
        return run_serve_metrics(argv[1:])
    if argv and argv[0] == "serve":
        from ..serve.cli import run_serve

        return run_serve(argv[1:])
    if argv and argv[0] == "client":
        from ..serve.cli import run_client

        return run_client(argv[1:])
    if argv and argv[0] == "top":
        from .top import run_top

        return run_top(argv[1:])
    if argv and argv[0] == "bench":
        from ..obs.bench import run_bench

        return run_bench(argv[1:])
    if argv and argv[0] == "profile":
        from ..profile.cli import run_profile

        return run_profile(argv[1:])
    if argv and argv[0] == "lint":
        from ..analysis.cli import run_lint

        return run_lint(argv[1:])
    if argv and argv[0] == "conformance":
        from ..conformance.cli import run_conformance

        return run_conformance(argv[1:])
    if argv and argv[0] == "sanitize":
        from ..sanitize.cli import run_sanitize

        return run_sanitize(argv[1:])
    args = build_parser().parse_args(argv)
    library = Pressio()

    if args.list:
        print("compressors:", ", ".join(library.supported_compressors()))
        print("metrics:    ", ", ".join(library.supported_metrics()))
        print("io:         ", ", ".join(library.supported_io()))
        return 0

    if not args.compressor:
        print("error: --compressor is required (or use --list)",
              file=sys.stderr)
        return 2
    compressor = library.get_compressor(args.compressor)
    if compressor is None:
        print(f"error: {library.error_msg()}", file=sys.stderr)
        return 2

    if args.print_docs:
        _print_options("documentation", compressor.get_documentation())
        return 0
    if args.print_config:
        _print_options("configuration", compressor.get_configuration())
        return 0

    if not _configure(compressor, args.option):
        return 2

    if args.print_options:
        _print_options("options", compressor.get_options())
        return 0

    metric_ids = [m for m in args.metrics.split(",") if m]
    if metric_ids:
        metrics = library.get_metric(metric_ids)
        compressor.set_metrics(metrics)

    input_data = _load_input(args, library)
    compressed = compressor.compress(input_data)
    if args.save_compressed:
        with open(args.save_compressed, "wb") as fh:
            fh.write(compressed.to_bytes())

    if not args.no_decompress:
        template = PressioData.empty(input_data.dtype, input_data.dims)
        decompressed = compressor.decompress(compressed, template)
        if args.save_decompressed:
            out_io = library.get_io(args.output_format)
            out_io.set_options({"io:path": args.save_decompressed})
            out_io.write(decompressed)

    if args.print_metrics:
        _print_options("metrics", compressor.get_metrics_results())
    return 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
