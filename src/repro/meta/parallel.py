"""Parallel meta-compressors: ``chunking``, ``many_independent``,
``many_dependent``.

These reproduce LibPressio's automatic task parallelism (Section IV-D):

* ``chunking`` splits one buffer into contiguous chunks and compresses
  them concurrently;
* ``many_independent`` compresses a *list* of buffers embarrassingly
  parallel (``compress_many``);
* ``many_dependent`` pipelines a sequence of buffers, forwarding a
  metric observed on earlier buffers into the configuration of later
  ones (the time-step configuration-guess pattern from the glossary).

One executor, :func:`run_tasks` (also ``sz_omp``'s), decides thread
safety from the plugin's advertised ``pressio:thread_safe`` — the
introspection datum the paper faults other libraries for not exposing:
a re-entrant plugin gets a clone per worker thread, any other runs
serially.  ``chunking`` and ``sz_omp`` share one slab container
(:func:`write_slabs`, :func:`read_slabs`).
"""

from __future__ import annotations

import os as _os
import struct
import threading
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from itertools import accumulate, islice

import numpy as np

from ..core.compressor import PressioCompressor
from ..core.configurable import ThreadSafety
from ..core.data import PressioData
from ..core.dtype import DType, dtype_to_numpy
from ..core.options import OptionType, PressioOptions
from ..core.registry import compressor_plugin, metrics_registry
from ..core.status import CorruptStreamError, InvalidOptionError
from ..encoders.headers import read_header, write_header
from ..trace import propagate as _propagate
from ..trace import runtime as _trace
from .base import MetaCompressor

__all__ = ["ChunkingCompressor", "ManyIndependentCompressor",
           "ManyDependentCompressor"]

#: cuts over the flattened array (every 1-D input)
_MAGIC = b"CHK1"
#: cuts over the N-d dims: runs of whole leading-axis slabs
_MAGIC_ND = b"CHK2"


def parallel_workers(plugin: PressioCompressor, nthreads: int) -> int:
    """The clone-or-serialize rule: ``nthreads`` when ``plugin``
    advertises ``pressio:thread_safe == multiple``, else 1."""
    cfg = plugin.get_configuration()
    reentrant = cfg.get("pressio:thread_safe") == ThreadSafety.MULTIPLE
    return nthreads if reentrant else 1


def per_thread(plugin: PressioCompressor) -> Callable[[], PressioCompressor]:
    """A getter of the calling thread's clone of ``plugin``."""
    local = threading.local()

    def worker() -> PressioCompressor:
        if not hasattr(local, "compressor"):
            local.compressor = plugin.clone()
        return local.compressor

    return worker


def run_tasks(fn: Callable, tasks: list, plugin: PressioCompressor,
              nthreads: int, clone: bool = True) -> list:
    """``[fn(worker, task) for task in tasks]``: serially with ``plugin``
    as the worker for one thread, one task or a plugin that is not
    re-entrant, else on at most ``nthreads`` threads, each with its own
    clone (unless not ``clone``) and under the caller's span."""
    n = 1
    if nthreads > 1 and len(tasks) > 1:
        n = min(len(tasks), parallel_workers(plugin, nthreads))
    _trace.annotate(n_tasks=len(tasks), n_workers=n, parallel=n > 1)
    if n == 1:
        return [fn(plugin, t) for t in tasks]
    worker = per_thread(plugin) if clone else lambda: plugin
    call = _trace.wrap_task(lambda task: fn(worker(), task))
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(call, tasks))


def write_slabs(magic: bytes, dtype: DType, dims: tuple[int, ...],
                streams: list[bytes], *ints: int) -> PressioData:
    """The slab container: a header holding the slab count and
    ``ints``, a ``<Q`` length table, then the slab streams."""
    table = struct.pack(f"<{len(streams)}Q", *(len(s) for s in streams))
    header = write_header(magic, dtype, dims, ints=(len(streams), *ints))
    return PressioData.from_bytes(header + table + b"".join(streams))


def read_slabs(view: memoryview, magic: bytes, output: PressioData,
               n_ints: int, cut: Callable) -> tuple:
    """``(dtype, dims, [(start, stop, stream), ...])`` of a
    :func:`write_slabs` container whose writer cut ``cut(dims, ints)``.

    Checks, before any buffer is sized, that the header holds ``n_ints``
    ints and ``output``'s dims (if any), that the slab count fits the
    table and equals the number of cuts, and that the table sums to the
    bytes after it.
    """
    expected = output.dims if output.num_dimensions else None
    dtype, dims, _d, ints, pos = read_header(view, magic, expected)
    if len(ints) != n_ints:
        raise CorruptStreamError(f"{magic!r} header holds {len(ints)} "
                                 f"ints, expected {n_ints}")
    if not dims:
        raise CorruptStreamError(f"{magic!r} container declares no dims")
    n = ints[0]
    if not 1 <= n <= (len(view) - pos) // 8:
        raise CorruptStreamError(f"{n} slabs do not fit a length table "
                                 f"in {len(view) - pos} bytes")
    # at most one cut past the record: a forged header may ask for far
    # more cuts than the stream has table entries
    cuts = list(islice(cut(dims, ints), n + 1))
    if len(cuts) != n:
        raise CorruptStreamError(
            f"{n} slabs recorded, but dims {dims} and header ints {ints} "
            f"cut {len(cuts)}{' or more' if len(cuts) > n else ''}")
    table = struct.unpack_from(f"<{n}Q", view, pos)
    pos += 8 * n
    if sum(table) != len(view) - pos:
        raise CorruptStreamError(f"slab lengths sum to {sum(table)}, "
                                 f"{len(view) - pos} bytes follow the table")
    ends = list(accumulate(table, initial=pos))
    return dtype, dims, [(start, stop, view[a:b]) for (start, stop), a, b
                         in zip(cuts, ends, ends[1:])]


class _ParallelBase(MetaCompressor):
    """The shared ``:nthreads`` option."""

    def __init__(self) -> None:
        super().__init__()
        self._nthreads = 4

    def _meta_options(self) -> PressioOptions:
        opts = PressioOptions()
        opts.set(f"{self.prefix()}:nthreads", np.int64(self._nthreads))
        return opts

    def _set_meta_options(self, options: PressioOptions) -> None:
        n = int(self._take(options, f"{self.prefix()}:nthreads",
                           OptionType.INT64, self._nthreads))
        if n < 1:
            raise InvalidOptionError(f"{self.prefix()}:nthreads must be >= 1")
        self._nthreads = n


def _slabs(dims: tuple[int, ...], chunk_size: int
           ) -> Iterator[tuple[int, int]]:
    """Yield the chunk cuts ``(start, stop)`` along ``dims[0]``.

    Each chunk is a run of whole leading-axis rows, about
    ``chunk_size`` elements: ``r = max(4, round(chunk_size / row))``
    rows (halves round up), at most ``dims[0]``, and a trailing
    remainder shorter than ``min(4, r)`` rows merges into the chunk
    before it.  So every chunk has at least 4 rows when
    ``dims[0] >= 4``, and one chunk holds the whole array when it has
    fewer.  For 1-D ``dims`` the rows are elements and
    ``r = chunk_size``, without merging: the cuts of
    ``range(0, n, chunk_size)``.  An array with no rows (or 0-d
    ``dims``, which hold no elements) is one empty chunk.
    """
    rows = dims[0] if dims else 0
    if len(dims) > 1:
        row = int(np.prod(dims[1:], dtype=np.int64))
        r = max(4, (2 * chunk_size + row) // (2 * row)) if row else rows
        tail = min(4, r)
    else:
        r, tail = chunk_size, 0
    r = min(r, rows)
    if r < 1:
        yield 0, 0
        return
    for start in range(0, rows, r):
        stop = start + r
        if rows - stop < tail:
            yield start, rows
            return
        yield start, min(stop, rows)


def _chunk_cuts(magic: bytes, dims: tuple[int, ...],
                ints: tuple[int, ...]) -> Iterator[tuple[int, int]]:
    """A ``CHK1``/``CHK2`` stream's cuts; ``CHK1``'s run over the
    flattened array."""
    if ints[1] < 1:
        raise CorruptStreamError(f"chunk size {ints[1]} < 1")
    flat = (int(np.prod(dims, dtype=np.int64)),)
    return _slabs(flat if magic == _MAGIC else dims, ints[1])


@compressor_plugin("chunking")
class ChunkingCompressor(_ParallelBase):
    """Splits a buffer into runs of whole leading-axis slabs.

    ``chunking:chunk_size`` is a target in elements; :func:`_slabs`
    turns it into the rows of each chunk, and each chunk goes to the
    inner plugin with its N-d dims (``CHK2``), so sz, zfp and mgard
    predict and transform across every axis of the slab.  1-D input is
    cut into ``chunk_size``-element pieces in a ``CHK1`` container,
    whose cuts run over the flattened array (N-d ``CHK1`` streams of
    earlier versions still decode).  Chunks are compressed
    independently (concurrently when the inner plugin is re-entrant)
    and the streams are concatenated behind a length table.
    """

    def __init__(self) -> None:
        super().__init__()
        self._chunk_size = 1 << 16

    def _meta_options(self) -> PressioOptions:
        opts = super()._meta_options()
        opts.set("chunking:chunk_size", np.int64(self._chunk_size))
        return opts

    def _set_meta_options(self, options: PressioOptions) -> None:
        super()._set_meta_options(options)
        size = int(self._take(options, "chunking:chunk_size",
                              OptionType.INT64, self._chunk_size))
        if size < 1:
            raise InvalidOptionError("chunking:chunk_size must be >= 1")
        self._chunk_size = size

    def _documentation(self) -> PressioOptions:
        docs = PressioOptions()
        docs.set("pressio:description",
                 "splits a buffer into runs of whole leading-axis slabs "
                 "and compresses each with its N-d dims")
        docs.set("chunking:chunk_size",
                 "target elements per chunk; rounded to whole leading-axis "
                 "rows, at least 4 where the array has them")
        docs.set("chunking:nthreads",
                 "worker threads when the inner plugin is re-entrant")
        return docs

    def _cut(self, input: PressioData) -> tuple[bytes, list[np.ndarray]]:
        """The container magic and the chunks of ``input``."""
        arr = np.ascontiguousarray(input.to_numpy())
        magic = _MAGIC_ND
        if arr.ndim < 2:
            magic, arr = _MAGIC, arr.reshape(-1)
        return magic, [arr[a:b] for a, b in _slabs(arr.shape,
                                                     self._chunk_size)]

    def _compress(self, input: PressioData) -> PressioData:
        magic, chunks = self._cut(input)

        def work(compressor: PressioCompressor, chunk: np.ndarray) -> bytes:
            return compressor.compress(
                PressioData.from_numpy(chunk, copy=False)
            ).to_bytes()

        streams = run_tasks(work, chunks, self._inner, self._nthreads)
        if _trace.ACTIVE is not None:
            _trace.annotate(n_chunks=len(streams))
            for s in streams:
                _trace.observe("chunking:compressed_chunk_bytes", len(s))
        return write_slabs(magic, input.dtype, input.dims, streams,
                           self._chunk_size)

    def _decompress(self, input: PressioData, output: PressioData) -> PressioData:
        view = input.as_memoryview()
        magic = _MAGIC_ND if bytes(view[:4]) == _MAGIC_ND else _MAGIC
        dtype, dims, tasks = read_slabs(view, magic, output, 2,
                                        partial(_chunk_cuts, magic))
        out = np.empty(dims, dtype=dtype_to_numpy(dtype))
        rows = out.reshape(-1) if magic == _MAGIC else out

        def work(compressor: PressioCompressor, task) -> None:
            start, stop, chunk = task
            slab = rows[start:stop]
            got = compressor.decompress(PressioData.from_bytes(chunk),
                                        PressioData.empty(dtype, slab.shape))
            got = got.to_numpy()
            if got.size != slab.size:
                raise CorruptStreamError(
                    f"chunk decodes to {got.size} elements, its slab "
                    f"{slab.shape} holds {slab.size}")
            slab[...] = got.reshape(slab.shape)

        run_tasks(work, tasks, self._inner, self._nthreads)
        return PressioData.from_numpy(out, copy=False)


def _process_worker(task: tuple) -> tuple:
    """Process-pool worker: rebuild the compressor and run one operation.

    Runs in a separate interpreter (the MPI-rank analog), so only
    picklable state crosses: the action (``"compress"`` or
    ``"decompress"``), the plugin id, a plain options dict, the raw
    buffer, the dtype and dims of the array side, and — when the parent
    was tracing — the ``pressio-spanwire/1`` wire string.  USERPTR
    options cannot cross a process boundary — the same restriction the
    paper notes for serialized configuration.  Returns
    ``(result_bytes, fragments)`` where fragments is the child's span
    dump (None when untraced); the pool's return channel carries them
    back in-band, no sink file needed.
    """
    from ..core.data import PressioData as _PD
    from ..core.dtype import dtype_from_numpy as _dfn
    from ..core.registry import compressor_registry as _reg
    from ..trace import propagate as _prop

    action, compressor_id, options, payload, dtype_str, dims, wire = task
    ctx = _prop.begin_child(_prop.extract(wire) if wire else None,
                            name="process-worker")
    try:
        compressor = _reg.create(compressor_id)
        if options and compressor.set_options(options) != 0:
            raise RuntimeError(compressor.error_msg())
        np_dtype = np.dtype(dtype_str)

        def run() -> bytes:
            if action == "compress":
                arr = np.frombuffer(payload, dtype=np_dtype).reshape(dims)
                return compressor.compress(
                    _PD.from_numpy(arr, copy=False)).to_bytes()
            out = compressor.decompress(_PD.from_bytes(payload),
                                        _PD.empty(_dfn(np_dtype), dims))
            return np.ascontiguousarray(out.to_numpy()).tobytes()

        if ctx is None:
            return run(), None
        with ctx.span("worker", pid=_os.getpid(), action=action,
                      compressor=compressor_id):
            blob = run()
        return blob, _prop.collect_fragments(ctx)
    finally:
        if ctx is not None:
            from ..trace import runtime as _rt

            _rt.disable_tracing()


@compressor_plugin("many_independent")
class ManyIndependentCompressor(_ParallelBase):
    """Embarrassingly parallel ``compress_many`` over buffer lists.

    ``many_independent:mode`` selects the worker model:

    * ``thread`` (default) — clones in a thread pool (cheap, shares
      memory; effective because the codecs release the GIL in their
      NumPy/zlib sections);
    * ``process`` — fresh interpreters per worker (the MPI-rank analog;
      escapes the GIL entirely at the cost of buffer pickling, and
      cannot carry USERPTR options across).
    """

    def __init__(self) -> None:
        super().__init__()
        self._mode = "thread"
        self._picklable_options: dict = {}

    def _meta_options(self) -> PressioOptions:
        opts = super()._meta_options()
        opts.set("many_independent:mode", self._mode)
        return opts

    def _set_meta_options(self, options: PressioOptions) -> None:
        super()._set_meta_options(options)
        mode = str(self._take(options, "many_independent:mode",
                              OptionType.STRING, self._mode))
        if mode not in ("thread", "process"):
            raise InvalidOptionError(
                "many_independent:mode must be thread or process")
        self._mode = mode

    def _set_options(self, options: PressioOptions) -> None:
        super()._set_options(options)
        # remember the picklable slice of the configuration so process
        # workers can replay it
        for key, opt in options.items():
            if not opt.has_value():
                continue
            value = opt.get()
            if isinstance(value, (int, float, str, bool, list)):
                self._picklable_options[key] = value

    def clone(self) -> "ManyIndependentCompressor":
        dup = super().clone()
        dup._picklable_options = dict(self._picklable_options)
        return dup

    def _compress(self, input: PressioData) -> PressioData:
        return self._inner.compress(input)

    def _decompress(self, input: PressioData, output: PressioData) -> PressioData:
        return self._inner.decompress(input, output)

    def compress_many(self, inputs: list[PressioData]) -> list[PressioData]:
        with _trace.stage("compress_many", plugin=self.get_name(),
                          n_inputs=len(inputs), mode=self._mode):
            if self._mode == "process" and len(inputs) > 1:
                return self._process_map_compress(inputs)
            return run_tasks(lambda comp, data: comp.compress(data),
                             list(inputs), self._inner, self._nthreads)

    def decompress_many(self, inputs: list[PressioData],
                        outputs: list[PressioData]) -> list[PressioData]:
        with _trace.stage("decompress_many", plugin=self.get_name(),
                          n_inputs=len(inputs), mode=self._mode):
            if self._mode == "process" and len(inputs) > 1:
                return self._process_map_decompress(inputs, outputs)
            return run_tasks(lambda comp, task: comp.decompress(*task),
                             list(zip(inputs, outputs)), self._inner,
                             self._nthreads)

    # -- process-pool plumbing -------------------------------------------
    def _process_tasks(self, payloads: list[tuple]) -> list:
        """Fan tasks out to a process pool, carrying the trace context.

        When tracing is active each task tuple gains the serialized
        ``pressio-spanwire/1`` wire; workers trace themselves and return
        their span fragments in-band alongside the result, which are
        stitched under this call's ``process_pool:invoke`` span with
        per-pid synthetic thread ids (the children ran *concurrently*,
        so their durations may legitimately sum past the invoke span).
        """
        from concurrent.futures import ProcessPoolExecutor

        workers = min(self._nthreads, len(payloads))
        wire = _propagate.serialize_context()
        tasks = [p + (wire,) for p in payloads]
        ctx = _trace.ACTIVE
        invoke = None
        if ctx is not None:
            invoke = ctx.start_span("process_pool:invoke",
                                    plugin=self.get_name(),
                                    n_tasks=len(tasks),
                                    n_workers=workers)
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_process_worker, tasks))
        finally:
            if invoke is not None:
                ctx.finish_span(invoke)
        if invoke is not None:
            for _, fragments in results:
                if fragments:
                    _propagate.stitch(ctx, fragments, invoke,
                                      same_thread=False)
        return [blob for blob, _ in results]

    def _process_map_compress(self, inputs: list[PressioData]
                              ) -> list[PressioData]:
        tasks = []
        for data in inputs:
            arr = np.asarray(data.to_numpy())
            tasks.append(("compress", self._inner_id,
                          self._picklable_options, arr.tobytes(),
                          str(arr.dtype), data.dims))
        return [PressioData.from_bytes(blob)
                for blob in self._process_tasks(tasks)]

    def _process_map_decompress(self, inputs: list[PressioData],
                                outputs: list[PressioData]
                                ) -> list[PressioData]:
        tasks = []
        for data, template in zip(inputs, outputs):
            np_dtype = dtype_to_numpy(template.dtype)
            tasks.append(("decompress", self._inner_id,
                          self._picklable_options, data.to_bytes(),
                          str(np_dtype), template.dims))
        results = []
        for blob, template in zip(self._process_tasks(tasks), outputs):
            np_dtype = dtype_to_numpy(template.dtype)
            arr = np.frombuffer(blob, dtype=np_dtype).reshape(template.dims)
            results.append(PressioData.from_numpy(arr, copy=False))
        return results


@compressor_plugin("many_dependent")
class ManyDependentCompressor(_ParallelBase):
    """Pipelined compression forwarding a measured value between buffers.

    For each buffer after the first, the metric result named by
    ``many_dependent:from_metric`` (measured on the most recently
    completed buffer) is written into the inner compressor option named
    by ``many_dependent:to_option`` before compressing — forwarding a
    configuration guess to subsequent time steps.
    """

    def __init__(self) -> None:
        super().__init__()
        self._from_metric = "error_stat:value_range"
        self._to_option = ""
        self._scale = 1.0

    def _meta_options(self) -> PressioOptions:
        opts = super()._meta_options()
        opts.set("many_dependent:from_metric", self._from_metric)
        opts.set("many_dependent:to_option", self._to_option)
        opts.set("many_dependent:scale", float(self._scale))
        return opts

    def _set_meta_options(self, options: PressioOptions) -> None:
        super()._set_meta_options(options)
        self._from_metric = str(self._take(
            options, "many_dependent:from_metric", OptionType.STRING,
            self._from_metric))
        self._to_option = str(self._take(
            options, "many_dependent:to_option", OptionType.STRING,
            self._to_option))
        self._scale = float(self._take(
            options, "many_dependent:scale", OptionType.DOUBLE, self._scale))

    def _compress(self, input: PressioData) -> PressioData:
        return self._inner.compress(input)

    def _decompress(self, input: PressioData, output: PressioData) -> PressioData:
        return self._inner.decompress(input, output)

    def compress_many(self, inputs: list[PressioData]) -> list[PressioData]:
        results: list[PressioData] = []
        probe = metrics_registry.create("error_stat")
        previous = self._inner.get_metrics()
        self._inner.set_metrics(probe)
        try:
            for i, data in enumerate(inputs):
                if i > 0 and self._to_option:
                    measured = probe.get_metrics_results().get(self._from_metric)
                    if measured is not None:
                        opts = PressioOptions(
                            {self._to_option: float(measured) * self._scale}
                        )
                        with _trace.stage("many_dependent:forward",
                                          to_option=self._to_option,
                                          value=float(measured) * self._scale):
                            rc = self._inner.set_options(opts)
                        _trace.add_counter("many_dependent:forwards")
                        if rc != 0:
                            raise InvalidOptionError(self._inner.error_msg())
                compressed = self._inner.compress(data)
                # error_stat needs the decompressed side to produce values;
                # run the round trip so the forward value exists
                if self._to_option:
                    template = PressioData.empty(data.dtype, data.dims)
                    self._inner.decompress(compressed, template)
                results.append(compressed)
        finally:
            self._inner.set_metrics(previous)
        return results
