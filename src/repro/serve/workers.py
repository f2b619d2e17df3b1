"""The serve worker pool: where requests become compress calls.

Every request runs on the connection thread that decoded it, once one
of ``workers`` execution permits is free, so compute parallelism never
exceeds the configured width and no request pays a cross-thread
hand-off (each costs a GIL handoff, ~100µs+ per round trip on small
requests, which alone would blow the 17.5% overhead budget).  The
permits go to waiters in arrival order and are also the daemon's
admission control: a request arriving while ``max_inflight`` others
hold or wait for a permit is shed, and one that waits longer than the
daemon's ``request_timeout`` fails; both answer with a retryable 503
:class:`~repro.serve.errors.SaturatedError`.

Two caches keep the per-request hot path under the 17.5% budget:

* **compressor cache** (per connection thread, via
  ``threading.local``): (compressor id, canonical options) ->
  configured instance, so ``get_compressor`` + ``set_options`` are
  paid once per (thread, config), not per request;
* the segment and input-view caches of
  :class:`~repro.serve.shm.SegmentCache`, so repeat requests over the
  same shared-memory slice skip attaching, ``np.frombuffer`` and
  wrapping entirely (~25µs).

Thread-safety honors the plugins' own declarations: a compressor whose
configuration says ``pressio:thread_safe == single`` (sz) is serialized
across connections through one per-plugin-id lock; ``serialized`` and
``multithreaded`` plugins run on per-thread instances without
coordination.

Trace propagation: a request carrying a ``pressio-spanwire/1`` context
runs under :func:`repro.trace.propagate.begin_child` and returns its
span fragments in-band in the response frame; because the tracer's
``ACTIVE`` slot is process-global (and an in-process test client may
have its own context installed), traced requests serialize on one lock
and save/restore the previous global.

Fault injection (``fault`` field in the frame) is honored only when
the pool is constructed with ``allow_fault_injection=True`` — the
fault-injection tests use it to crash a request mid-execution and
watch the typed 503 and the flight-recorder bundle.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import nullcontext

import numpy as np

from ..core.data import PressioData
from ..core.domain import NonOwningDomain
from ..core.dtype import DType, dtype_from_numpy
from ..obs import flight as _flight
from ..obs import runtime as _obs
from ..trace import propagate as _propagate
from ..trace import runtime as _trace
from .cache import ArtifactCache, fingerprint
from .errors import (
    BadPayloadError,
    OptionRejectedError,
    SaturatedError,
    UnknownCompressorError,
    UnknownOpError,
    WorkerCrashedError,
    map_exception,
)
from .shm import SegmentCache
from .wire import Request, Response, ShmRef, canonical_options, element_count

__all__ = ["WorkerPool"]


class _InducedCrash(Exception):
    """Raised by fault injection to crash a request mid-execution."""


class _FifoPermits:
    """``width`` execution permits, handed to waiters in arrival order,
    and the daemon's one busy gate.

    A ``threading.Semaphore`` lets a releasing thread's next acquire
    barge ahead of threads already blocked, so under saturation a busy
    connection can starve older waiters and stretch the tail latency;
    here :meth:`release` hands the permit straight to the oldest
    waiter.  Invariant: permits are free only while nobody waits.

    In flight is holders plus waiters; once it reaches ``max_inflight``
    :meth:`acquire` sheds the request with a retryable 503 instead of
    queueing it, so one lock decides whether a request runs, waits or
    is shed.
    """

    def __init__(self, width: int, max_inflight: int) -> None:
        if max_inflight <= 0:
            raise ValueError(
                f"max_inflight must be positive, got {max_inflight}")
        self._lock = threading.Lock()
        self._free = width
        self._waiters: deque[threading.Event] = deque()
        self.max_inflight = int(max_inflight)
        self.inflight = 0
        self.shed = 0
        self.peak = 0

    def acquire(self, timeout: float) -> bool:
        """Take a permit, waiting at most ``timeout`` seconds for one.

        Raises :class:`SaturatedError` when ``max_inflight`` requests
        already hold or wait for a permit; returns False on timeout.
        """
        with self._lock:
            if self.inflight >= self.max_inflight:
                self.shed += 1
                raise SaturatedError(
                    f"server saturated: {self.inflight} requests in flight "
                    f"(limit {self.max_inflight})", retry_after_s=0.05)
            self.inflight += 1
            if self.inflight > self.peak:
                self.peak = self.inflight
            handoff = None
            if self._free:
                self._free -= 1
            else:
                handoff = threading.Event()
                self._waiters.append(handoff)
        self._publish()
        if handoff is None or handoff.wait(timeout):
            return True
        with self._lock:
            if handoff.is_set():  # handed over as the wait expired
                return True
            self._waiters.remove(handoff)
            self.inflight -= 1
        self._publish()
        return False

    def release(self) -> None:
        with self._lock:
            self.inflight -= 1
            if self._waiters:
                self._waiters.popleft().set()
            else:
                self._free += 1
        self._publish()

    def _publish(self) -> None:
        if _obs.ACTIVE is not None:
            _obs.set_gauge("pressio_serve_inflight", float(self.inflight),
                           "serve requests currently in flight")


def _as_bytes_view(payload) -> memoryview:
    view = memoryview(payload)
    if view.nbytes == 0:
        # cast() rejects empty shapes; an empty payload is just b""
        return memoryview(b"")
    return view if view.format == "B" and view.ndim == 1 else view.cast("B")


_NONOWNING = NonOwningDomain()  # stateless; shared across streams

#: Shared minimal reply for lean roundtrips.  Read-only by contract:
#: execute() skips the stats stamps on lean responses and the daemon
#: only reads fields, so one instance can answer every lean request.
_LEAN_ROUNDTRIP_OK = Response(ok=True, op="roundtrip", lean=True)


def _byte_stream(mv: memoryview) -> PressioData:
    """Wrap a compressed byte stream zero-copy.

    Direct construction: ``from_bytes`` would copy a memoryview to
    preserve value semantics and ``nonowning`` re-derives dtype/dims
    the long way — both too slow for the per-request hot path.
    """
    arr = np.frombuffer(mv, dtype=np.uint8)
    return PressioData(DType.UINT8, (arr.size,), arr, _NONOWNING)


class WorkerPool:
    """Executes serve requests on their callers' threads, at most
    ``workers`` at once."""

    def __init__(self, library, segments: SegmentCache,
                 cache: ArtifactCache | None = None, workers: int = 4,
                 max_inflight: int = 64,
                 allow_fault_injection: bool = False) -> None:
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        self._library = library
        self.segments = segments
        self.cache = cache
        self.workers = workers
        self.allow_fault_injection = bool(allow_fault_injection)
        self.permits = _FifoPermits(workers, max_inflight)
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._trace_lock = threading.Lock()
        self._descrs: dict[tuple, PressioData] = {}
        self._plugin_locks: dict[str, threading.Lock] = {}
        self.completed = 0
        self.failed = 0
        self.crashes = 0

    # -- execution ---------------------------------------------------------

    def _comp_cache(self) -> dict:
        cache = getattr(self._tls, "comp_cache", None)
        if cache is None:
            cache = self._tls.comp_cache = {}
        return cache

    def execute(self, req: Request, timeout: float) -> Response:
        """Run ``req`` on the calling thread once a permit is free.

        Every failure of the request itself is counted and mapped to a
        typed error response here; a request past ``max_inflight``, or
        one that waits more than ``timeout`` seconds for a permit,
        raises a retryable :class:`SaturatedError`.
        """
        queued_ns = time.perf_counter_ns()
        if not self.permits.acquire(timeout):
            raise SaturatedError(
                f"no execution permit free within {timeout}s "
                f"({self.workers} workers)", retry_after_s=0.05)
        start_ns = time.perf_counter_ns()
        try:
            resp = self._handle(req)
        except _InducedCrash as crash:
            return self._report_crash(req, crash)
        except BaseException as exc:  # noqa: BLE001 - wire boundary
            err = map_exception(exc)
            _obs.record_error("serve", req.compressor or "-", exc,
                              tenant=req.tenant, etype=err.etype)
            with self._lock:
                self.failed += 1
            return Response(ok=False, op=req.op, error=err.to_payload())
        finally:
            self.permits.release()
        with self._lock:
            self.completed += 1
        if not resp.lean:
            resp.stats["queue_us"] = (start_ns - queued_ns) // 1000
            resp.stats["worker_us"] = (
                time.perf_counter_ns() - start_ns) // 1000
        return resp

    def _report_crash(self, req: Request, crash: _InducedCrash) -> Response:
        err = WorkerCrashedError(
            "request crashed mid-execution; retry", retry_after_s=0.05)
        with self._lock:
            self.crashes += 1
            self.failed += 1
        rec = _flight.ACTIVE
        if rec is not None:
            rec.record_error("serve", req.compressor or "-", crash,
                             {"tenant": req.tenant, "op": req.op})
            rec.dump("serve-worker-crash", exc=crash)
        _obs.count("pressio_serve_worker_crashes_total",
                   "serve requests crashed mid-execution",
                   tenant=req.tenant)
        return Response(ok=False, op=req.op, error=err.to_payload())

    def _handle(self, req: Request) -> Response:
        comp_cache = self._comp_cache()
        if req.fault and self.allow_fault_injection:
            if req.fault == "crash-worker":
                raise _InducedCrash("induced by fault field")
            if req.fault == "exception":
                raise RuntimeError("induced unhandled exception")
        remote = _propagate.extract(req.trace) if req.trace else None
        if remote is not None and remote.sampled:
            return self._execute_traced(req, comp_cache, remote)
        return self._execute(req, comp_cache)

    def _execute_traced(self, req: Request, comp_cache: dict,
                        remote) -> Response:
        # The tracer's ACTIVE slot is process-global; serialize traced
        # requests and restore whatever context the (possibly
        # in-process) client had installed.
        with self._trace_lock:
            prev = _trace.ACTIVE
            ctx = _propagate.begin_child(remote, name="serve-worker")
            fragments: list[dict] = []
            try:
                if ctx is not None:
                    with ctx.span(f"serve:{req.op}", tenant=req.tenant,
                                  compressor=req.compressor):
                        resp = self._execute(req, comp_cache)
                else:
                    resp = self._execute(req, comp_cache)
            finally:
                if ctx is not None:
                    fragments = _propagate.collect_fragments(ctx)
                _trace.disable_tracing()
                if prev is not None:
                    _trace.enable_tracing(prev)
        resp.fragments = fragments
        return resp

    def _execute(self, req: Request, comp_cache: dict) -> Response:
        if req.op == "ping":
            return Response(ok=True, op="ping")
        comp, guard = self._compressor(req, comp_cache)
        if req.op == "compress":
            return self._op_compress(req, comp, guard)
        if req.op == "decompress":
            return self._op_decompress(req, comp, guard)
        if req.op == "roundtrip":
            return self._op_roundtrip(req, comp, guard)
        raise UnknownOpError(f"unsupported operation {req.op!r}")

    def _compressor(self, req: Request, comp_cache: dict):
        # one-slot memo: repeat requests for the same configuration skip
        # the canonical-options JSON key build (worth ~15µs per request)
        last = comp_cache.get("__last__")
        if (last is not None and last[0] == req.compressor
                and last[1] == req.options):
            return last[2], last[3]
        key = (req.compressor, canonical_options(req.options))
        hit = comp_cache.get(key)
        if hit is None:
            comp = self._library.get_compressor(req.compressor)
            if comp is None:
                raise UnknownCompressorError(
                    f"no compressor {req.compressor!r}: "
                    f"{self._library.error_msg()}")
            if req.options:
                rc = comp.set_options(req.options)
                if rc != 0:
                    raise OptionRejectedError(
                        f"compressor {req.compressor!r} rejected options: "
                        f"{comp.status.msg}")
            guard = None
            if comp.is_shared_instance():
                with self._lock:
                    guard = self._plugin_locks.setdefault(
                        req.compressor, threading.Lock())
            comp_cache[key] = hit = (comp, guard)
        comp_cache["__last__"] = (req.compressor, dict(req.options),
                                  hit[0], hit[1])
        return hit

    def _input_data(self, req: Request) -> tuple[PressioData, memoryview]:
        """The request's ndarray as (PressioData, raw bytes) — zero-copy."""
        if req.shm is not None:
            return self.segments.input_data(req.shm, req.dtype, req.dims)
        dt = np.dtype(req.dtype)
        dtype_from_numpy(dt)  # reject dtypes the core cannot name
        shape = req.dims if req.dims else (1,)
        count = element_count(req.dims)
        payload = _as_bytes_view(req.payload or b"")
        need = count * dt.itemsize
        if len(payload) != need:
            raise BadPayloadError(
                f"payload is {len(payload)} bytes but dtype/dims imply "
                f"{need}")
        arr = np.frombuffer(payload, dtype=dt, count=count).reshape(shape)
        return PressioData.from_numpy(arr, copy=False), payload

    def _stream_data(self, req: Request) -> PressioData:
        """The request's compressed byte stream, zero-copy."""
        if req.shm is not None:
            mv = self.segments.bytes_view(req.shm)
        else:
            mv = _as_bytes_view(req.payload or b"")
        return _byte_stream(mv)

    def _deliver(self, req: Request, resp: Response,
                 blob: memoryview) -> Response:
        """Attach a result to the response: out-segment copy or inline."""
        if req.out_shm is not None:
            seg = self.segments.segment(req.out_shm.name)
            off = req.out_shm.offset
            if off + len(blob) <= seg.size:
                seg.buf[off:off + len(blob)] = blob
                resp.shm = ShmRef(name=req.out_shm.name, nbytes=len(blob),
                                  offset=off)
                return resp
            # the result outgrew the client's segment (strongly
            # expanding compressor); deliver inline rather than fail —
            # the client handles payload responses on every path
        resp.payload = blob
        return resp

    def _compress_blob(self, req: Request, comp, guard) -> tuple[
            memoryview, dict, PressioData | None]:
        """Compress (or serve from cache); returns (bytes, stats, data).

        The third element is the compressor's own result
        :class:`PressioData` when a real compression ran — roundtrip
        feeds it straight back into decompress, skipping a re-wrap of
        the byte stream.  It is ``None`` on artifact-cache hits.
        """
        data, raw = self._input_data(req)
        if req.lean and (self.cache is None or req.cache == "bypass"):
            # lean replies drop stats anyway; skip assembling them
            with guard if guard is not None else nullcontext():
                result = comp.compress(data)
            return _as_bytes_view(result.as_memoryview()), {}, result
        stats: dict = {"input_bytes": len(raw)}
        cache_key = None
        if self.cache is not None and req.cache != "bypass":
            cache_key = ArtifactCache.key(
                fingerprint(raw), req.dtype, req.dims, req.compressor,
                req.options)
            if req.cache == "use":
                artifact = self.cache.get(cache_key)
                if artifact is not None:
                    stats["cache"] = "hit"
                    stats["compressed_bytes"] = len(artifact)
                    _obs.count("pressio_serve_cache_events_total",
                               "artifact cache hits/misses/stores",
                               event="hit", tenant=req.tenant)
                    return memoryview(artifact), stats, None
            stats["cache"] = "miss"
            _obs.count("pressio_serve_cache_events_total",
                       "artifact cache hits/misses/stores",
                       event="miss", tenant=req.tenant)
        with guard if guard is not None else nullcontext():
            result = comp.compress(data)
        blob = _as_bytes_view(result.as_memoryview())
        stats["compressed_bytes"] = len(blob)
        if len(blob):
            stats["ratio"] = round(len(raw) / len(blob), 4)
        if cache_key is not None:
            self.cache.put(cache_key, blob)
            _obs.count("pressio_serve_cache_events_total",
                       "artifact cache hits/misses/stores",
                       event="store", tenant=req.tenant)
        return blob, stats, result

    def _op_compress(self, req: Request, comp, guard) -> Response:
        blob, stats, _result = self._compress_blob(req, comp, guard)
        resp = Response(ok=True, op="compress", dtype="uint8",
                        dims=(len(blob),), stats=stats)
        return self._deliver(req, resp, blob)

    def _decompress_blob(self, req: Request, comp, guard,
                         stream: PressioData,
                         ) -> tuple[memoryview, tuple[int, ...]]:
        # output descriptors are shape-only (plugins return fresh data,
        # never write into them), so one per (dtype, dims) is shared
        key = (req.dtype, req.dims)
        out_descr = self._descrs.get(key)
        if out_descr is None:
            dt = np.dtype(req.dtype)
            out_descr = PressioData.empty(
                dtype_from_numpy(dt), req.dims if req.dims else (1,))
            if len(self._descrs) >= 1024:
                self._descrs.clear()
            self._descrs[key] = out_descr
        with guard if guard is not None else nullcontext():
            result = comp.decompress(stream, out_descr)
        blob = _as_bytes_view(result.as_memoryview())
        dims = req.dims
        expect = element_count(dims) * np.dtype(req.dtype).itemsize
        if len(blob) != expect:
            # plugins may return a different shape than requested
            # (subsampling, resizing): report what was actually produced
            dims = tuple(result.dims)
        return blob, dims

    def _op_decompress(self, req: Request, comp, guard) -> Response:
        stream = self._stream_data(req)
        blob, dims = self._decompress_blob(req, comp, guard, stream)
        resp = Response(ok=True, op="decompress", dtype=req.dtype,
                        dims=dims, scalar=req.scalar,
                        stats={"output_bytes": len(blob)})
        return self._deliver(req, resp, blob)

    def _op_roundtrip(self, req: Request, comp, guard) -> Response:
        blob, stats, result = self._compress_blob(req, comp, guard)
        stream = result if result is not None else _byte_stream(blob)
        out, out_dims = self._decompress_blob(req, comp, guard, stream)
        if req.lean and req.out_shm is not None and req.trace is None:
            # lean opt-in: the client provided the output slice and
            # already knows its descriptor (roundtrip output == input
            # shape), so a constant minimal reply suffices — but only
            # when the result is byte-exact for that descriptor
            expected = (req.shm.nbytes if req.shm is not None else
                        element_count(req.dims) * np.dtype(req.dtype).itemsize)
            seg = self.segments.segment(req.out_shm.name)
            off = req.out_shm.offset
            if len(out) == expected and off + len(out) <= seg.size:
                seg.buf[off:off + len(out)] = out
                return _LEAN_ROUNDTRIP_OK
        stats["output_bytes"] = len(out)
        resp = Response(ok=True, op="roundtrip", dtype=req.dtype,
                        dims=out_dims, scalar=req.scalar, stats=stats)
        return self._deliver(req, resp, out)
