"""The ``pressio serve`` daemon: multi-tenant compression over HTTP.

The transport is :class:`repro.obs.server.HTTPListener`, the package's
one HTTP/1.1 keep-alive loop, listening on a TCP port and on a
per-instance ``AF_UNIX`` socket (HTTP over UDS: same framing, same
route table, no TCP stack on the same-host hop).  Measured on the 24³
bench configs this keeps the transport near 20µs — the margin that
lets the served round trip beat the paper's 17.5% out-of-process
overhead (Section V(d), ``docs/SERVING.md``).

Request lifecycle, all on one connection thread::

    parse HTTP -> read body (pooled buffer) -> route table
      -> decode frame                  # _handle_frame from here on
      -> output cap (decompress)       # 413, nothing allocated
      -> quota.admit(tenant)           # 429 + Retry-After
      -> pool.execute(req)             # sheds past max_inflight, else
                                       # waits for a permit (503 +
                                       # Retry-After on either, or on
                                       # request_timeout), then runs
      -> encode frame -> write HTTP response

Routes:

* ``POST /v1/compress`` / ``/v1/decompress`` / ``/v1/roundtrip`` /
  ``/v1/ping`` — one ``pressio-serve/1`` frame in, one frame out;
* ``POST /v1/release`` — the client is done with a shared-memory
  segment; drop cached views so it can be unlinked;
* ``GET /v1/compressors`` — registry listing (JSON);
* ``GET /healthz`` — liveness + pool, permit and cache stats (JSON);
* ``GET /metrics`` — the active obs registry in Prometheus text,
  rendered exactly as ``pressio serve-metrics`` renders it.

Every request lands in the ``pressio_serve_*`` metric families with a
``tenant`` label.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile
import time

import numpy as np

from ..core.library import Pressio
from ..obs import runtime as _obs
from ..obs.server import JSON, HTTPListener, observability_routes
from .cache import ArtifactCache
from .errors import (
    BadFrameError,
    InternalServeError,
    PayloadTooLargeError,
    map_exception,
)
from .quota import QuotaManager
from .shm import SegmentCache
from .wire import (
    WIRE_VERSION,
    Response,
    decode_request,
    element_count,
    encode_response,
)
from .workers import WorkerPool

__all__ = ["ServeServer", "start_serve_server"]

CONTENT_TYPE = "application/x-pressio-serve"

#: Request-duration buckets sized for microsecond-scale round trips.
_SERVE_BUCKETS = (0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
                  0.01, 0.025, 0.05, 0.1, 0.25, 1.0, 5.0)

_FRAME_OPS = {"/v1/compress": "compress", "/v1/decompress": "decompress",
              "/v1/roundtrip": "roundtrip", "/v1/ping": "ping"}


class ServeServer:
    """Owns the listening socket, worker pool, caches, and quotas.

    ``max_payload`` caps both what a client may send (the request body)
    and what it may make the daemon allocate: a decompress whose
    declared output exceeds it fails with a 413 before any work.
    """

    def __init__(self, library: Pressio | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 workers: int = 4, max_inflight: int = 64,
                 quota: QuotaManager | None = None,
                 cache_bytes: int = 64 << 20,
                 max_payload: int = 256 << 20,
                 allow_fault_injection: bool = False,
                 auto_port: bool = False,
                 unix_socket: bool = True) -> None:
        self.library = library if library is not None else Pressio()
        self._host = host
        self._requested_port = port
        self._auto_port = auto_port
        self.max_payload = int(max_payload)
        self.quota = quota if quota is not None else QuotaManager()
        self.segments = SegmentCache()
        self.cache = ArtifactCache(cache_bytes) if cache_bytes else None
        self.pool = WorkerPool(
            self.library, self.segments, self.cache, workers=workers,
            max_inflight=max_inflight,
            allow_fault_injection=allow_fault_injection)
        self.started_at = 0.0
        self.request_timeout = 60.0
        self._want_uds = bool(unix_socket)
        self._http: HTTPListener | None = None
        #: filesystem path of the AF_UNIX listener (None if disabled
        #: or the platform refused it); same protocol as the TCP port
        self.uds_path: str | None = None
        routes = {path: ("POST", CONTENT_TYPE,
                         functools.partial(self._handle_frame, path, op))
                  for path, op in _FRAME_OPS.items()}
        routes["/v1/release"] = ("POST", JSON, self._handle_release)
        routes["/v1/compressors"] = ("GET", JSON, self._compressors)
        routes.update(observability_routes(self._health_body))
        self._routes = routes

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ServeServer":
        if self._http is not None:
            raise RuntimeError("server already started")
        self._http = HTTPListener(
            self._routes, max_body=self.max_payload,
            oversize=self._payload_too_large).start(
            self._host, self._requested_port,
            auto_port=self._auto_port, surface="serve")
        self.started_at = time.monotonic()
        if self._want_uds:
            self.uds_path = self._http.listen_unix(os.path.join(
                tempfile.gettempdir(),
                f"pressio-serve-{os.getpid()}-{self.port}.sock"))
        return self

    def stop(self) -> None:
        if self._http is None:
            return
        self._http.stop()
        self.uds_path = None
        self.segments.close_all()
        self._http = None

    def __enter__(self) -> "ServeServer":
        return self.start() if self._http is None else self

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def port(self) -> int:
        if self._http is None:
            raise RuntimeError("server not started")
        return self._http.port

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}"

    # -- dispatch ----------------------------------------------------------

    def _compressors(self, _body) -> tuple[int, dict[str, str], bytes]:
        doc = {"version": WIRE_VERSION,
               "compressors": self.library.supported_compressors()}
        return 200, {}, json.dumps(doc).encode() + b"\n"

    def _payload_too_large(self, length: int,
                           ) -> tuple[int, dict[str, str], bytes]:
        err = PayloadTooLargeError(
            f"payload {length} bytes exceeds limit {self.max_payload}")
        return err.http_status, {}, encode_response(Response(
            ok=False, op="", error=err.to_payload()))

    def _handle_frame(self, path: str, op: str, body: bytes | memoryview,
                      ) -> tuple[int, dict[str, str], bytes]:
        """The one request lifecycle: decode, output cap, quota,
        execution; every failure becomes a typed error frame."""
        start_ns = time.perf_counter_ns()
        tenant = "unknown"
        try:
            req = decode_request(body)
            tenant = req.tenant
            if req.op != op:
                raise BadFrameError(
                    f"frame op {req.op!r} does not match endpoint {path}")
            if op == "decompress":
                self._check_output_size(req)
            self.quota.admit(tenant)
            resp = self.pool.execute(req, self.request_timeout)
        except Exception as exc:  # noqa: BLE001 - wire boundary
            err = map_exception(exc)
            if isinstance(err, InternalServeError):
                _obs.record_error("serve", "daemon", exc, tenant=tenant)
            resp = Response(ok=False, op=op, error=err.to_payload())
        return self._finish(resp, tenant, op, start_ns, len(body))

    def _check_output_size(self, req) -> None:
        # the client sends both the stream and the dims its template is
        # built from, so the dims alone must not size an allocation
        nbytes = element_count(req.dims) * np.dtype(req.dtype).itemsize
        if nbytes > self.max_payload:
            raise PayloadTooLargeError(
                f"decompressed output of {nbytes} bytes exceeds limit "
                f"{self.max_payload}")

    def _finish(self, resp: Response, tenant: str, op: str,
                start_ns: int, in_bytes: int,
                ) -> tuple[int, dict[str, str], bytes]:
        if resp.error is None:
            status, outcome, headers = 200, "ok", {}
        else:
            status = int(resp.error.get("http", 500))
            outcome = str(resp.error.get("etype", "internal"))
            headers = {}
            retry = resp.error.get("retry_after_s")
            if retry is not None:
                headers["Retry-After"] = f"{max(float(retry), 0.001):.3f}"
        out = encode_response(resp)
        if _obs.ACTIVE is not None:
            elapsed = (time.perf_counter_ns() - start_ns) / 1e9
            _obs.count("pressio_serve_requests_total",
                       "serve requests by tenant/op/outcome",
                       tenant=tenant, op=op, status=outcome)
            _obs.observe("pressio_serve_request_seconds",
                         elapsed, "serve request wall time",
                         buckets=_SERVE_BUCKETS, tenant=tenant, op=op)
            _obs.count("pressio_serve_payload_bytes_total",
                       "frame bytes in/out by tenant", float(in_bytes),
                       tenant=tenant, direction="in")
            _obs.count("pressio_serve_payload_bytes_total",
                       "frame bytes in/out by tenant", float(len(out)),
                       tenant=tenant, direction="out")
        return status, headers, out

    def _handle_release(self, body: memoryview,
                        ) -> tuple[int, dict[str, str], bytes]:
        try:
            doc = json.loads(bytes(body).decode("utf-8"))
            name = doc["name"]
        except (ValueError, KeyError, UnicodeDecodeError):
            return 400, {}, b'{"error": "body must be {\\"name\\": ...}"}\n'
        self.segments.forget_views(str(name))
        return 200, {}, b'{"released": true}\n'

    def _health_body(self) -> bytes:
        payload = {
            "status": "ok",
            "version": WIRE_VERSION,
            "uds": self.uds_path,
            "uptime_seconds": round(time.monotonic() - self.started_at, 3),
            "workers": self.pool.workers,
            "inflight": self.pool.permits.inflight,
            "peak_inflight": self.pool.permits.peak,
            "shed": self.pool.permits.shed,
            "quota": {"admitted": self.quota.admitted,
                      "denied": self.quota.denied,
                      "enabled": self.quota.enabled},
            "completed": self.pool.completed,
            "failed": self.pool.failed,
            "crashes": self.pool.crashes,
            "cache": self.cache.stats() if self.cache else None,
            "segments": self.segments.stats(),
        }
        return json.dumps(payload).encode("utf-8") + b"\n"


def start_serve_server(**kwargs) -> ServeServer:
    """Construct and start a :class:`ServeServer` in one call."""
    return ServeServer(**kwargs).start()
