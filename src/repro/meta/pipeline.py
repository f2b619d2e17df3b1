"""``pipelined``: a chunk-pipelined compression executor.

:class:`~repro.meta.parallel.ChunkingCompressor` gets its concurrency
from running whole chunks on a thread pool, which only pays off when the
inner plugin is fully re-entrant and the chunks are large.  This plugin
exploits a different axis: the sz, zfp and mgard plugins
(:class:`~repro.compressors.staged.StagedCompressor`) split ``compress``
into

* **stage 1** — quantize / predict / transform: numpy element work that
  holds the GIL;
* **stage 2** — entropy coding: zlib/bz2/lzma byte work that *releases*
  the GIL.

The executor runs stage 1 of chunk ``i+1`` on the
calling thread while a single worker thread entropy-codes chunk ``i`` —
software pipelining across the GIL boundary.  At most
``pipelined:depth`` stage-2 tasks are in flight; the calling thread
blocks on the oldest future before starting another stage 1, so memory
stays bounded at ``depth`` chunk states.

The output is **byte-identical** to the ``chunking`` plugin configured
with the same chunk size and inner compressor: the same slab cuts
(:func:`~repro.meta.parallel._slabs`), the same ``CHK1``/``CHK2``
container and the same per-chunk streams (stage 2 after stage 1 *is*
``compress``), so :meth:`_decompress` is inherited unchanged and streams
from either plugin decode through the other.  Per-chunk operation
metrics differ — the staged path records one operation for the whole
buffer rather than one per chunk — but bytes never do.

When the inner plugin does not implement the stage split
(:meth:`supports_stage_split` is false), compression falls back to the
inherited chunking path, still byte-identical.

The module-level :data:`inflight` / :data:`peak_inflight` counters back
the ``pressio_pipeline_inflight`` gauge exported by
:func:`repro.obs.bridge.ingest_runtime`.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

from ..core.configurable import Field
from ..core.data import PressioData
from ..core.options import OptionType
from ..obs import flight as _flight
from ..obs import runtime as _obs
from ..core.registry import compressor_plugin
from ..trace import runtime as _trace
from .parallel import CHUNK_SIZE, NTHREADS, ChunkingCompressor, write_slabs

__all__ = ["PipelinedCompressor"]

#: stage-2 tasks currently queued or running on the worker thread.
#: Updated under :data:`_stats_lock` (once per chunk, far off the
#: per-element hot path) because the submitting thread and the worker
#: mutate them concurrently.
inflight = 0
#: high-water mark of :data:`inflight` since import (or :func:`reset_stats`).
peak_inflight = 0
#: total stage-2 tasks ever completed (pipelined chunks processed).
stage2_total = 0

_stats_lock = threading.Lock()


def reset_stats() -> None:
    global inflight, peak_inflight, stage2_total
    with _stats_lock:
        inflight = 0
        peak_inflight = 0
        stage2_total = 0


@compressor_plugin("pipelined")
class PipelinedCompressor(ChunkingCompressor):
    """Overlaps quantize/predict of chunk ``i+1`` with entropy-coding of
    chunk ``i`` on a single worker thread; byte-identical to ``chunking``.
    """

    description = ("chunk-pipelined executor overlapping the inner "
                   "compressor's quantize/predict stage with its "
                   "entropy-coding stage")
    fields = (
        replace(NTHREADS, doc="worker threads for the (inherited) "
                              "decompress path"),
        replace(CHUNK_SIZE, doc="target elements per pipelined chunk, cut "
                                "as chunking:chunk_size is"),
        Field("depth", "_depth", OptionType.INT64, low=1,
              doc="max stage-2 tasks in flight before stage 1 blocks"),
    )

    def __init__(self) -> None:
        super().__init__()
        self._depth = 2

    # -- compression ----------------------------------------------------
    def _compress(self, input: PressioData) -> PressioData:
        inner = self._inner
        if not inner.supports_stage_split():
            # no stage split to overlap: inherit the chunking behaviour
            # (same container, same bytes)
            return super()._compress(input)
        magic, chunks = self._cut(input)

        def stage2(state) -> bytes:
            global inflight, stage2_total
            try:
                return inner.compress_stage2(state).to_bytes()
            finally:
                with _stats_lock:
                    inflight -= 1
                    stage2_total += 1

        if _trace.ACTIVE is not None:
            _trace.annotate(n_chunks=len(chunks), depth=self._depth,
                            pipelined=True)
            # surface the request baggage (tenant / error-bound config)
            # the tracer carried into this dispatch, so per-tenant
            # attribution survives into the span tree
            for key, value in _trace.ACTIVE.baggage.items():
                if isinstance(value, (str, int, float, bool)):
                    _trace.annotate(**{f"baggage.{key}": value})
            stage2 = _trace.wrap_task(stage2)
        global inflight, peak_inflight
        streams: list[bytes | None] = [None] * len(chunks)
        pending: deque = deque()
        with ThreadPoolExecutor(max_workers=1) as pool:
            try:
                for i, chunk in enumerate(chunks):
                    while len(pending) >= self._depth:
                        j, fut = pending.popleft()
                        streams[j] = fut.result()
                    state = inner.compress_stage1(
                        PressioData.from_numpy(chunk, copy=False))
                    with _stats_lock:
                        inflight += 1
                        peak_inflight = max(peak_inflight, inflight)
                    pending.append((i, pool.submit(stage2, state)))
                while pending:
                    j, fut = pending.popleft()
                    streams[j] = fut.result()
            except BaseException:
                # reap submitted stage 2s (and their inflight decrements)
                # without letting their errors mask the primary one
                while pending:
                    _, fut = pending.popleft()
                    try:
                        fut.result()
                    except Exception as reaped:  # noqa: BLE001
                        _obs.record_error("compress", self.get_name(),
                                          reaped, cause="pipeline-reap")
                raise
        if _trace.ACTIVE is not None:
            for s in streams:
                _trace.observe("pipelined:compressed_chunk_bytes", len(s))
        if _flight.ACTIVE is not None:
            _flight.ACTIVE.record("pipeline", plugin=self.get_name(),
                                  n_chunks=len(streams),
                                  depth=self._depth)
        return write_slabs(magic, input.dtype, input.dims, streams,
                           self._chunk_size)
