"""SZ variant plugins from the paper's plugin list.

* ``sz_threadsafe`` — "the threadsafe serial version of the SZ
  prediction based error bounded lossy compressor": same pipeline, but
  configuration lives per instance (no global store), so the plugin
  advertises full re-entrancy and the parallel meta-compressors may
  clone it freely;
* ``sz_omp`` — "the parallel CPU version of SZ": the same pipeline run
  over leading-axis slabs by a worker pool (the OpenMP analog), with an
  ``sz_omp:nthreads`` option.
"""

from __future__ import annotations

import struct
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..core.configurable import Stability, ThreadSafety
from ..core.data import PressioData
from ..core.dtype import dtype_to_numpy
from ..core.options import OptionType, PressioOptions
from ..core.registry import compressor_plugin
from ..core.status import CorruptStreamError, InvalidOptionError
from ..encoders.headers import read_header, write_header
from ..native.sz import core as sz_core
from .sz import SZCompressor

__all__ = ["SZThreadsafeCompressor", "SZOmpCompressor"]


@compressor_plugin("sz_threadsafe")
class SZThreadsafeCompressor(SZCompressor):
    """SZ pipeline with per-instance configuration (re-entrant)."""

    thread_safety = "multithreaded"

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
        cfg.set("pressio:thread_safe", ThreadSafety.MULTIPLE)
        cfg.set("sz:shared_instance", False)
        return cfg

    def _documentation(self) -> PressioOptions:
        docs = super()._documentation()
        docs.set("pressio:description",
                 "threadsafe serial SZ: per-instance configuration, "
                 "safe to clone across threads")
        return docs

    def version(self) -> str:
        return "2.1.10.threadsafe.pyrepro"


_OMP_MAGIC = b"SZMP"


@compressor_plugin("sz_omp")
class SZOmpCompressor(SZThreadsafeCompressor):
    """Slab-parallel SZ (the OpenMP-style CPU-parallel variant)."""

    def __init__(self) -> None:
        super().__init__()
        self._nthreads = 4

    def _options(self) -> PressioOptions:
        opts = super()._options()
        opts.set("sz_omp:nthreads", np.int64(self._nthreads))
        return opts

    def _set_options(self, options: PressioOptions) -> None:
        super()._set_options(options)
        n = int(self._take(options, "sz_omp:nthreads", OptionType.INT64,
                           self._nthreads))
        if n < 1:
            raise InvalidOptionError("sz_omp:nthreads must be >= 1")
        self._nthreads = n

    def _documentation(self) -> PressioOptions:
        docs = super()._documentation()
        docs.set("pressio:description",
                 "slab-parallel SZ (OpenMP-analog CPU parallelism)")
        docs.set("sz_omp:nthreads", "worker threads for slab compression")
        return docs

    def version(self) -> str:
        return "2.1.10.omp.pyrepro"

    def _slabs(self, arr: np.ndarray) -> list[np.ndarray]:
        """Leading-axis slabs, one per worker (OpenMP static schedule)."""
        n = arr.shape[0] if arr.ndim else 0
        workers = min(self._nthreads, max(n, 1))
        bounds = np.linspace(0, n, workers + 1).astype(int)
        return [arr[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])
                if hi > lo]

    def _compress(self, input: PressioData) -> PressioData:
        arr = np.asarray(input.to_numpy())
        if arr.dtype.kind != "f":
            # the slab path feeds sz_core directly; keep the serial
            # path's typed rejection instead of an arbitrary native error
            return super()._compress(input)
        if arr.ndim == 0 or arr.shape[0] < 2 * self._nthreads:
            return super()._compress(input)
        slabs = self._slabs(arr)
        params = self._params

        def work(slab: np.ndarray) -> bytes:
            return sz_core.compress(slab, params)

        if self._nthreads == 1 or len(slabs) == 1:
            streams = [work(s) for s in slabs]
        else:
            with ThreadPoolExecutor(max_workers=len(slabs)) as pool:
                streams = list(pool.map(work, slabs))
        table = struct.pack(f"<{len(streams)}Q", *(len(s) for s in streams))
        header = write_header(_OMP_MAGIC, input.dtype, input.dims,
                              ints=(len(streams),))
        return PressioData.from_bytes(header + table + b"".join(streams))

    def _decompress(self, input: PressioData, output: PressioData) -> PressioData:
        view = input.as_memoryview()
        if bytes(view[:4]) != _OMP_MAGIC:
            return super()._decompress(input, output)
        expected = output.dims if output.num_dimensions else None
        dtype, dims, _d, ints, pos = read_header(view, _OMP_MAGIC, expected)
        if len(ints) != 1 or not dims:
            raise CorruptStreamError("SZMP header holds no slab count or dims")
        n_slabs = ints[0]
        if not 1 <= n_slabs <= min(dims[0], (len(view) - pos) // 8):
            raise CorruptStreamError(
                f"{n_slabs} slabs do not fit {dims[0]} rows and a length "
                f"table in {len(view) - pos} bytes")
        table = struct.unpack_from(f"<{n_slabs}Q", view, pos)
        pos += 8 * n_slabs
        if sum(table) != len(view) - pos:
            raise CorruptStreamError(
                f"slab lengths sum to {sum(table)}, {len(view) - pos} "
                "bytes follow the table")
        # the encoder's cuts; each slab's header must declare its cut
        # before the output is allocated
        bounds = np.linspace(0, dims[0], n_slabs + 1).astype(int)
        slabs = []
        for lo, hi, length in zip(bounds[:-1], bounds[1:], table):
            stream = view[pos:pos + length]
            slab_dims = (int(hi - lo),) + dims[1:]
            read_header(stream, sz_core._MAGIC, slab_dims)
            slabs.append((lo, hi, stream, slab_dims))
            pos += length
        out = np.empty(dims, dtype=dtype_to_numpy(dtype))
        for lo, hi, stream, slab_dims in slabs:
            out[lo:hi] = sz_core.decompress(stream, expected_dims=slab_dims)
        return self._as_template(out, output)

    def supports_stage_split(self) -> bool:
        """False: sz's stage pair would not write ``SZMP``, so
        ``pipelined`` must take its whole-compress path."""
        return False
