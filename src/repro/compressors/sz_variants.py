"""SZ variant plugins from the paper's plugin list.

* ``sz_threadsafe`` — "the threadsafe serial version of the SZ
  prediction based error bounded lossy compressor": same pipeline, but
  configuration lives per instance (no global store), so the plugin
  advertises full re-entrancy and the parallel meta-compressors may
  clone it freely;
* ``sz_omp`` — "the parallel CPU version of SZ": the same pipeline run
  over leading-axis slabs on the parallel meta-compressors' executor
  (the OpenMP analog), compressing and decoding the slabs concurrently,
  with an ``sz_omp:nthreads`` option.
"""

from __future__ import annotations

import numpy as np

from ..core.data import PressioData
from ..core.dtype import dtype_to_numpy
from ..core.configurable import Field
from ..core.options import OptionType, PressioOptions
from ..core.registry import compressor_plugin
from ..encoders.headers import read_header
from ..meta.parallel import read_slabs, run_tasks, write_slabs
from ..native.sz import core as sz_core
from .sz import SZCompressor

__all__ = ["SZThreadsafeCompressor", "SZOmpCompressor"]


@compressor_plugin("sz_threadsafe")
class SZThreadsafeCompressor(SZCompressor):
    """SZ pipeline with per-instance configuration (re-entrant)."""

    thread_safety = "multithreaded"
    description = ("threadsafe serial SZ: per-instance configuration, "
                   "safe to clone across threads")

    def __init__(self) -> None:
        # deliberately skip SZCompressor.__init__'s global acquire:
        # the whole point of the threadsafe variant is no shared state
        from ..core.compressor import PressioCompressor
        from ..native.sz.params import sz_params

        PressioCompressor.__init__(self)
        self._params = sz_params()

    def _release_native(self) -> None:
        """No global store to release."""

    def _configuration(self) -> PressioOptions:
        cfg = super()._configuration()
        cfg.set("sz:shared_instance", False)
        return cfg

    def version(self) -> str:
        return "2.1.10.threadsafe.pyrepro"


_OMP_MAGIC = b"SZMP"


def _cuts(rows: int, n: int) -> list[tuple[int, int]]:
    """``n`` near-equal runs of ``rows`` leading-axis rows (an OpenMP
    static schedule); empty runs, where ``n > rows``, are dropped."""
    bounds = np.linspace(0, rows, n + 1).astype(int).tolist()
    return [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


@compressor_plugin("sz_omp")
class SZOmpCompressor(SZThreadsafeCompressor):
    """Slab-parallel SZ (the OpenMP-style CPU-parallel variant)."""

    description = "slab-parallel SZ (OpenMP-analog CPU parallelism)"
    fields = SZThreadsafeCompressor.fields + (
        Field("sz_omp:nthreads", "_nthreads", OptionType.INT64, low=1,
              doc="worker threads for slab compression and decoding"),
    )

    def __init__(self) -> None:
        super().__init__()
        self._nthreads = 4

    def version(self) -> str:
        return "2.1.10.omp.pyrepro"

    def _compress(self, input: PressioData) -> PressioData:
        arr = np.asarray(input.to_numpy())
        # the slab path feeds sz_core directly; keep the serial path's
        # typed rejection of non-float input, and its plain SZ02 stream
        # for input too small to give each thread two rows
        if (arr.dtype.kind != "f" or arr.ndim == 0
                or arr.shape[0] < 2 * self._nthreads):
            return super()._compress(input)
        streams = run_tasks(
            lambda _, cut: sz_core.compress(arr[slice(*cut)], self._params),
            _cuts(arr.shape[0], self._nthreads), self, self._nthreads,
            clone=False)
        return write_slabs(_OMP_MAGIC, input.dtype, input.dims, streams)

    def _decompress(self, input: PressioData, output: PressioData) -> PressioData:
        view = input.as_memoryview()
        if bytes(view[:4]) != _OMP_MAGIC:
            return super()._decompress(input, output)
        dtype, dims, slabs = read_slabs(
            view, _OMP_MAGIC, output, 1,
            lambda dims, ints: _cuts(dims[0], ints[0]))
        # each slab's header must declare its cut before the output is
        # allocated
        for lo, hi, stream in slabs:
            read_header(stream, sz_core._MAGIC, (hi - lo,) + dims[1:])
        out = np.empty(dims, dtype=dtype_to_numpy(dtype))

        def work(_, task: tuple) -> None:
            rows, stream = task
            rows[...] = sz_core.decompress(stream, expected_dims=rows.shape)

        run_tasks(work, [(out[lo:hi], stream) for lo, hi, stream in slabs],
                  self, self._nthreads, clone=False)
        return self._as_template(out, output)

    def supports_stage_split(self) -> bool:
        """False: sz's stage pair would not write ``SZMP``, so
        ``pipelined`` must take its whole-compress path."""
        return False
