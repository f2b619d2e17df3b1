"""Asynchronous and streaming compression (paper future-work item 2).

The paper's conclusion lists "better support for asynchrony and
streaming compression" as future work.  Two facilities are provided on
top of the uniform interface:

* :class:`AsyncCompressor` — futures-based asynchrony around any
  plugin.  The meta-compressors' clone-or-serialize rule decides the
  worker model: a re-entrant plugin gets a pool of per-thread clones;
  anything else gets one worker thread that serializes operations (so
  even sz-style global-state compressors are safely asynchronous).

* :class:`StreamingCompressor` / :class:`StreamingDecompressor` — an
  incremental frame API in the style of zstd's streaming interface:
  values are appended in arbitrarily-sized chunks, compressed frames
  are emitted whenever a frame's worth accumulates, and the decompressor
  accepts the byte stream in arbitrary splits, yielding decoded values
  as frames complete.  Frames are independently-decodable units, so a
  consumer can start before the producer finishes.

Frame layout::

    stream header: magic "PSF1" | u8 dtype | u64 frame_elements
    frame:         u64 payload_len | inner compressed stream
    end:           u64 0xFFFFFFFFFFFFFFFF (explicit terminator)
"""

from __future__ import annotations

import queue
import struct
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Iterator

import numpy as np

from .core.compressor import PressioCompressor
from .core.data import PressioData
from .core.dtype import DType, dtype_to_numpy
from .core.status import CorruptStreamError
from .meta.parallel import parallel_workers, per_thread
from .trace import runtime as _trace

__all__ = ["AsyncCompressor", "StreamingCompressor",
           "StreamingDecompressor"]

_MAGIC = b"PSF1"
_END = 0xFFFFFFFFFFFFFFFF


class AsyncCompressor:
    """Futures-based asynchronous wrapper over any compressor plugin."""

    def __init__(self, compressor: PressioCompressor, max_workers: int = 4):
        self._workers = parallel_workers(compressor, max_workers)
        self._worker = (per_thread(compressor) if self._workers > 1
                        else lambda: compressor)
        self._pool = ThreadPoolExecutor(max_workers=self._workers)

    @property
    def workers(self) -> int:
        return self._workers

    def _submit(self, op) -> "Future[PressioData]":
        # the worker thread runs ``op`` under the caller's span
        return self._pool.submit(_trace.wrap_task(
            lambda: op(self._worker())))

    def compress_async(self, data: PressioData) -> "Future[PressioData]":
        """Schedule a compression; returns a future of the stream."""
        return self._submit(lambda comp: comp.compress(data))

    def decompress_async(self, data: PressioData,
                         template: PressioData) -> "Future[PressioData]":
        """Schedule a decompression; returns a future of the buffer."""
        return self._submit(lambda comp: comp.decompress(data, template))

    def map_compress(self, datas: list[PressioData]) -> list[PressioData]:
        """Compress a batch concurrently, preserving order."""
        futures = [self.compress_async(d) for d in datas]
        return [f.result() for f in futures]

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "AsyncCompressor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


class StreamingCompressor:
    """Incremental compression into independently-decodable frames."""

    def __init__(self, compressor: PressioCompressor, dtype: DType,
                 frame_elements: int = 65536,
                 pipelined: bool = False, max_workers: int = 4):
        if frame_elements < 1:
            raise ValueError("frame_elements must be >= 1")
        self._compressor = compressor
        self._dtype = DType(dtype)
        self._np_dtype = dtype_to_numpy(self._dtype)
        self._frame_elements = int(frame_elements)
        self._pending: list[np.ndarray] = []
        self._pending_count = 0
        self._started = False
        self._finished = False
        self.frames_emitted = 0
        self._async = (AsyncCompressor(compressor, max_workers)
                       if pipelined else None)
        self._inflight: "queue.Queue[Future]" = queue.Queue()

    # -- producer side ------------------------------------------------------
    def write(self, values: np.ndarray) -> bytes:
        """Append values; returns whatever compressed bytes are ready."""
        if self._finished:
            raise RuntimeError("stream already finished")
        arr = np.ascontiguousarray(values, dtype=self._np_dtype).reshape(-1)
        self._pending.append(arr)
        self._pending_count += arr.size
        out = bytearray(self._header_once())
        while self._pending_count >= self._frame_elements:
            frame = self._take(self._frame_elements)
            out += self._emit(frame)
        out += self._drain_ready()
        return bytes(out)

    def finish(self) -> bytes:
        """Flush the partial final frame and terminate the stream."""
        if self._finished:
            return b""
        self._finished = True
        out = bytearray(self._header_once())
        if self._pending_count:
            out += self._emit(self._take(self._pending_count))
        out += self._drain_ready(wait=True)
        if self._async is not None:
            self._async.shutdown()
        out += struct.pack("<Q", _END)
        return bytes(out)

    # -- internals ------------------------------------------------------------
    def _header_once(self) -> bytes:
        if self._started:
            return b""
        self._started = True
        return _MAGIC + struct.pack("<BQ", int(self._dtype),
                                    self._frame_elements)

    def _take(self, count: int) -> np.ndarray:
        buf = np.concatenate(self._pending) if len(self._pending) > 1 \
            else self._pending[0]
        frame, rest = buf[:count], buf[count:]
        self._pending = [rest] if rest.size else []
        self._pending_count = int(rest.size)
        return frame

    def _emit(self, frame: np.ndarray) -> bytes:
        data = PressioData.from_numpy(frame, copy=False)
        self.frames_emitted += 1
        if self._async is None:
            payload = self._compressor.compress(data).to_bytes()
            return struct.pack("<Q", len(payload)) + payload
        self._inflight.put(self._async.compress_async(data))
        return b""

    def _drain_ready(self, wait: bool = False) -> bytes:
        if self._async is None:
            return b""
        out = bytearray()
        while not self._inflight.empty():
            future = self._inflight.queue[0]
            if not wait and not future.done():
                break
            self._inflight.get()
            payload = future.result().to_bytes()
            out += struct.pack("<Q", len(payload)) + payload
        return bytes(out)


class StreamingDecompressor:
    """Incremental decoder for :class:`StreamingCompressor` streams."""

    def __init__(self, compressor: PressioCompressor):
        self._compressor = compressor
        self._buffer = bytearray()
        self._dtype: DType | None = None
        self._frame_elements = 0
        self.finished = False

    def feed(self, chunk: bytes) -> list[np.ndarray]:
        """Accept bytes (any split); return completed frames' values."""
        if self.finished and chunk:
            raise CorruptStreamError("data after stream terminator")
        self._buffer += chunk
        frames: list[np.ndarray] = []
        if self._dtype is None:
            if len(self._buffer) < 4 + 9:
                return frames
            if bytes(self._buffer[:4]) != _MAGIC:
                raise CorruptStreamError("not a pressio frame stream")
            dtype_code, frame_elements = struct.unpack_from(
                "<BQ", self._buffer, 4)
            self._dtype = DType(dtype_code)
            self._frame_elements = frame_elements
            del self._buffer[:13]
        while len(self._buffer) >= 8:
            (length,) = struct.unpack_from("<Q", self._buffer, 0)
            if length == _END:
                del self._buffer[:8]
                self.finished = True
                if self._buffer:
                    raise CorruptStreamError("data after stream terminator")
                break
            if len(self._buffer) < 8 + length:
                break
            payload = bytes(self._buffer[8:8 + length])
            del self._buffer[:8 + length]
            template = PressioData.empty(self._dtype)
            out = self._compressor.decompress(
                PressioData.from_bytes(payload), template)
            frames.append(np.asarray(out.to_numpy()).reshape(-1))
        return frames

    def close(self) -> None:
        """Assert the stream ended cleanly.

        Raises :class:`CorruptStreamError` when the terminator was never
        seen (producer died mid-stream) or bytes are still buffered (a
        frame was cut short) — the silent-truncation case a consumer
        must not mistake for end-of-data.
        """
        if not self.finished:
            if self._dtype is None and not self._buffer:
                raise CorruptStreamError("stream ended before its header")
            raise CorruptStreamError(
                f"stream ended without terminator "
                f"({len(self._buffer)} bytes buffered)")
        if self._buffer:
            raise CorruptStreamError("data after stream terminator")

    def iter_frames(self, stream: bytes,
                    chunk_size: int = 4096) -> Iterator[np.ndarray]:
        """Convenience: drive feed() over a complete byte string."""
        for offset in range(0, len(stream), chunk_size):
            yield from self.feed(stream[offset:offset + chunk_size])
