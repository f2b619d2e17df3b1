"""``pressio profile``: capture, inspect, and diff stage profiles.

Two modes:

* **capture** — round-trip a dataset under the stage profiler and print
  the attribution report (stage table, allocation section, sampled
  stacks); ``--json``/``--flamegraph``/``--chrome-trace`` persist the
  artifact, the collapsed stacks, and the raw span timeline::

      pressio profile --compressor sz --synthetic nyx --dims 32,32,32 \\
              --option pressio:abs=1e-4 --reps 3 \\
              --json prof.json --flamegraph prof.folded

* **diff** — align two saved profiles by stage path and name the stages
  that account for the wall-time delta::

      pressio profile --diff baseline.json current.json
"""

from __future__ import annotations

import argparse
import sys

from ..tools.cli import _add_input_arguments

__all__ = ["build_profile_parser", "run_profile"]


def build_profile_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pressio profile",
        description="stage-level performance attribution: capture a "
                    "profile of a round trip, or --diff two profiles",
    )
    parser.add_argument("inputs", nargs="*", default=[],
                        help="with --diff: BASELINE.json CURRENT.json; "
                             "otherwise an optional input data path "
                             "(equivalent to --input)")
    parser.add_argument("--diff", action="store_true",
                        help="diff two saved profile artifacts")
    parser.add_argument("--compressor", "-z", default=None,
                        help="compressor plugin id (capture mode)")
    _add_input_arguments(parser)
    parser.add_argument("--reps", type=int, default=3,
                        help="profiled round trips (default 3)")
    parser.add_argument("--no-decompress", action="store_true",
                        help="profile the compression phase only")
    parser.add_argument("--no-alloc", action="store_true",
                        help="skip tracemalloc allocation tracking")
    parser.add_argument("--no-sample", action="store_true",
                        help="skip the wall-clock sampling profiler")
    parser.add_argument("--sample-interval", type=float, default=0.002,
                        help="sampling period in seconds (default 0.002)")
    parser.add_argument("--json", default=None,
                        help="write the profile artifact to this path")
    parser.add_argument("--flamegraph", default=None,
                        help="write collapsed stacks to this path")
    parser.add_argument("--chrome-trace", default=None,
                        help="write chrome://tracing JSON to this path")
    parser.add_argument("--min-share", type=float, default=0.05,
                        help="--diff: culprit threshold as a share of the "
                             "wall delta (default 0.05)")
    return parser


def _run_diff(args) -> int:
    from .diff import diff_profiles, format_diff
    from .export import load_profile

    paths = list(args.inputs)
    if len(paths) != 2:
        print("error: --diff needs exactly two profile paths "
              "(baseline.json current.json)", file=sys.stderr)
        return 2
    try:
        baseline = load_profile(paths[0])
        current = load_profile(paths[1])
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    report = diff_profiles(baseline, current, min_share=args.min_share)
    print(format_diff(report))
    return 0


def run_profile(argv: list[str]) -> int:
    """The ``pressio profile`` subcommand."""
    args = build_profile_parser().parse_args(argv)
    if args.diff:
        return _run_diff(args)

    from ..core.data import PressioData
    from ..core.library import Pressio
    from ..tools.cli import _configure, _load_input
    from .export import (format_memory_report, format_sample_report,
                         format_stage_table, write_collapsed, write_profile)
    from .stage import StageProfiler

    if not args.compressor:
        print("error: --compressor is required in capture mode",
              file=sys.stderr)
        return 2
    if args.inputs:
        if len(args.inputs) > 1 or args.input:
            print("error: at most one positional input path",
                  file=sys.stderr)
            return 2
        args.input = args.inputs[0]

    library = Pressio()
    compressor = library.get_compressor(args.compressor)
    if compressor is None:
        print(f"error: {library.error_msg()}", file=sys.stderr)
        return 2
    if not _configure(compressor, args.option):
        return 2

    input_data = _load_input(args, library)
    template = PressioData.empty(input_data.dtype, input_data.dims)
    # warm-up outside the profile so lazy imports / allocator warm-up
    # do not masquerade as stage time
    compressed = compressor.compress(input_data)
    if not args.no_decompress:
        compressor.decompress(compressed, template)

    profiler = StageProfiler(
        name=f"{args.compressor}:"
             f"{args.synthetic or args.input or 'stdin'}",
        track_alloc=not args.no_alloc,
        sample_interval=None if args.no_sample else args.sample_interval,
    )
    with profiler:
        for _ in range(max(1, args.reps)):
            compressed = compressor.compress(input_data)
            if not args.no_decompress:
                compressor.decompress(compressed, template)
    profile = profiler.result(meta={
        "compressor": args.compressor,
        "dataset": args.synthetic or args.input,
        "dims": list(input_data.dims),
        "dtype": input_data.dtype.name,
        "reps": max(1, args.reps),
        "options": args.option,
    }, strict=True)

    print(format_stage_table(profile))
    print()
    print(format_memory_report(profile))
    if not args.no_sample:
        print()
        print(format_sample_report(profile))
    if args.json:
        write_profile(profile, args.json)
        print(f"\nwrote profile to {args.json}")
    if args.flamegraph:
        lines = write_collapsed(profile, args.flamegraph)
        print(f"wrote {lines} collapsed stacks to {args.flamegraph}")
    if args.chrome_trace:
        from ..trace.export import write_chrome_trace

        events = write_chrome_trace(profiler.ctx, args.chrome_trace)
        print(f"wrote {events} chrome trace events to {args.chrome_trace}")
    return 0
