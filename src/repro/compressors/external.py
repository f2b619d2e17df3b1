"""The ``external`` compressor: out-of-process compression.

Spawns a fresh Python interpreter per operation and moves data across
the process boundary through the filesystem — the pattern used when
compression is only available as a standalone tool (the paper's
NumCodecs/Z-Checker embedding discussion, Section V).  Exists mainly so
the embedding-overhead experiment can measure how much the exec-plus-
copy pattern costs relative to in-process plugins.

Options:

* ``external:compressor`` — inner plugin id the worker uses;
* ``external:config_json`` — JSON-encoded options for the inner plugin
  (demonstrating the serialization restriction: opaque/userptr options
  *cannot* cross the process boundary, which is the paper's argument for
  embeddable designs);
* ``external:init_cost_ms`` — simulated expensive startup (e.g. MPI
  initialization), busy-waited in the worker.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import numpy as np

from ..core.compressor import PressioCompressor
from ..core.configurable import Field, Stability
from ..core.data import PressioData
from ..core.options import OptionType, PressioOptions
from ..core.registry import compressor_plugin
from ..core.status import PressioError
from ..obs import flight as _flight
from ..obs import runtime as _obs
from ..obs.logging import get_logger
from ..trace import propagate as _propagate
from ..trace import runtime as _trace

__all__ = ["ExternalCompressor"]

_log = get_logger("compressors.external")

#: Bound on captured worker stderr: the *last* 64 KiB survive (the end
#: of a traceback is the useful end), the rest is dropped and counted.
_STDERR_CAP = 64 * 1024


@compressor_plugin("external")
class ExternalCompressor(PressioCompressor):
    """Out-of-process compression via a spawned worker interpreter."""

    thread_safety = "multithreaded"
    description = "out-of-process compression (spawn + filesystem copy)"
    fields = (
        Field("external:compressor", "_inner", OptionType.STRING,
              doc="inner plugin id run by the worker"),
        Field("external:config_json", "_config_json", OptionType.STRING,
              doc="JSON options for the inner plugin"),
        Field("external:init_cost_ms", "_init_cost_ms", OptionType.DOUBLE,
              doc="simulated expensive worker init"),
    )

    def __init__(self) -> None:
        super().__init__()
        self._inner = "sz"
        self._config_json = "{}"
        self._init_cost_ms = 0.0

    def _set_options(self, options: PressioOptions) -> None:
        super()._set_options(options)
        json.loads(self._config_json)  # validate early

    def _configuration(self) -> PressioOptions:
        cfg = PressioOptions()
        cfg.set("pressio:stability", Stability.EXTERNAL)
        cfg.set("pressio:lossy", True)
        cfg.set("external:embeddable", False)
        return cfg

    def version(self) -> str:
        return "1.0.0.pyrepro"

    # -- plumbing -----------------------------------------------------------
    def _run_worker(self, action: str, in_path: str, out_path: str,
                    dtype: str, dims: tuple[int, ...]) -> None:
        """Spawn the worker; when tracing, hand down the trace context.

        The child receives the ``pressio-spanwire/1`` wire via
        ``PRESSIO_TRACE_CONTEXT`` plus a fragment-sink path in the same
        temporary directory as the data files; after the process exits
        its span fragments are stitched under this call's
        ``external:invoke`` span so ``pressio trace`` / ``pressio
        profile`` see one tree spanning both processes.
        """
        cmd = [
            sys.executable, "-m", "repro.tools.external_worker",
            "--action", action,
            "--compressor", self._inner,
            "--config", self._config_json,
            "--input", in_path,
            "--output", out_path,
            "--dtype", dtype,
            "--dims", ",".join(str(d) for d in dims),
            "--init-cost-ms", str(self._init_cost_ms),
        ]
        ctx = _trace.ACTIVE
        if ctx is not None:
            sink = os.path.join(os.path.dirname(in_path), "trace.jsonl")
            env = _propagate.child_env(sink)
            with ctx.span("external:invoke", plugin="external",
                          inner=self._inner, action=action) as invoke:
                proc = subprocess.run(cmd, capture_output=True,
                                      text=True, env=env)
            if os.path.exists(sink):
                # stitched as same-thread children: the worker ran
                # synchronously inside the invoke span, so the profiler
                # must subtract its stages from invoke's exclusive time
                _propagate.stitch(ctx, sink, invoke, same_thread=True)
        else:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  env=_propagate.child_env())
        stderr_tail, truncated_by = self._bound_stderr(proc.stderr)
        if truncated_by:
            _obs.count(
                "pressio_external_stderr_truncated_total",
                "worker stderr captures cut to the last 64 KiB",
                action=action, inner=self._inner)
        rec = _flight.ACTIVE
        if rec is not None and (stderr_tail or proc.returncode != 0):
            rec.record("child_stderr", plugin="external",
                       action=action, inner=self._inner,
                       exit_status=proc.returncode,
                       stderr=stderr_tail,
                       truncated_bytes=truncated_by)
        if proc.returncode != 0:
            # the worker's stderr and exit status are the only evidence
            # of what went wrong out-of-process — record both in the
            # failure taxonomy (Sec. V measurements care how often the
            # spawn pattern fails, not just that it can)
            _obs.count(
                "pressio_external_worker_failures_total",
                "spawned worker processes that exited non-zero",
                action=action, inner=self._inner,
                exit_status=str(proc.returncode))
            _log.error(
                "external worker failed",
                extra={"action": action, "inner": self._inner,
                       "exit_status": proc.returncode,
                       "stderr": stderr_tail[-500:], "argv": cmd[1:]})
            raise PressioError(
                f"external worker failed (rc={proc.returncode}): "
                f"{stderr_tail[-500:]}"
            )
        if stderr_tail:
            # a zero exit with stderr output is usually a warning from
            # the inner plugin; keep it joinable to the surrounding span
            _log.warning(
                "external worker wrote to stderr",
                extra={"action": action, "inner": self._inner,
                       "exit_status": 0, "stderr": stderr_tail[-500:]})

    @staticmethod
    def _bound_stderr(stderr: str) -> tuple[str, int]:
        """Last 64 KiB of worker stderr plus how many bytes were cut.

        A chatty worker (progress bars, per-element debug prints) must
        not balloon the parent's memory or the flight-recorder bundle;
        the tail keeps the part of a traceback that matters.
        """
        text = stderr.strip()
        raw = text.encode("utf-8", errors="replace")
        if len(raw) <= _STDERR_CAP:
            return text, 0
        kept = raw[-_STDERR_CAP:].decode("utf-8", errors="replace")
        return kept, len(raw) - _STDERR_CAP

    def _compress(self, input: PressioData) -> PressioData:
        arr = input.to_numpy()
        with tempfile.TemporaryDirectory(prefix="pressio_ext_") as tmp:
            in_path = os.path.join(tmp, "input.bin")
            out_path = os.path.join(tmp, "output.bin")
            np.ascontiguousarray(arr).tofile(in_path)
            self._run_worker("compress", in_path, out_path,
                             str(arr.dtype), input.dims)
            with open(out_path, "rb") as fh:
                return PressioData.from_bytes(fh.read())

    def _decompress(self, input: PressioData, output: PressioData) -> PressioData:
        from ..core.dtype import dtype_to_numpy

        np_dtype = dtype_to_numpy(output.dtype)
        with tempfile.TemporaryDirectory(prefix="pressio_ext_") as tmp:
            in_path = os.path.join(tmp, "input.bin")
            out_path = os.path.join(tmp, "output.bin")
            with open(in_path, "wb") as fh:
                fh.write(input.to_bytes())
            self._run_worker("decompress", in_path, out_path,
                             str(np_dtype), output.dims)
            arr = np.fromfile(out_path, dtype=np_dtype).reshape(output.dims)
            return PressioData.from_numpy(arr, copy=False)
