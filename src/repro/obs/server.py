"""The one HTTP listener, and the ``/metrics`` + ``/healthz`` endpoint.

:class:`HTTPListener` is a hand-rolled HTTP/1.1 subset on
``socketserver`` (keep-alive, ``TCP_NODELAY``, ``Content-Length``
framing only) that dispatches through a path -> handler table, on TCP
and optionally ``AF_UNIX``.  A stdlib request handler would cost
milliseconds per request once Nagle meets delayed ACKs — the whole
overhead budget of a served round trip.  :class:`MetricsServer` and
``pressio serve`` both register :func:`observability_routes`, so
``/metrics`` renders the same everywhere::

    from repro import obs

    server = obs.start_server(port=9100)   # also enables collection
    print(server.url)                      # http://127.0.0.1:9100
    server.stop()

Binding port 0 picks a free port; :attr:`MetricsServer.port` reports
the real one.
"""

from __future__ import annotations

import errno
import json
import os
import socketserver
import threading
import time
from typing import Callable

import numpy as np

from ..native import pool as _pool
from . import bridge, prometheus, runtime
from .registry import MetricsRegistry

__all__ = ["HTTPListener", "MetricsServer", "PortInUseError",
           "bind_with_fallback", "observability_routes", "start_server"]

#: ``(status, extra headers, response body)``
Reply = tuple[int, dict[str, str], bytes]
#: ``handler(request body) -> Reply``
Handler = Callable[[bytes | memoryview], Reply]
#: ``path -> (method, content type, handler)``
Routes = dict[str, tuple[str, str, Handler]]

JSON = "application/json"
TEXT = b"text/plain; charset=utf-8"

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            422: "Unprocessable Entity", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable"}


class PortInUseError(OSError):
    """The requested port is already bound by another process.

    Raised instead of the raw ``OSError`` so callers (the
    ``serve-metrics`` and ``serve`` CLIs) can offer the port-0 fallback
    with a clear message rather than a traceback.
    """

    def __init__(self, host: str, port: int,
                 surface: str = "metrics") -> None:
        super().__init__(errno.EADDRINUSE,
                         f"{surface} port {host}:{port} is already in use")
        self.host = host
        self.port = port
        self.surface = surface


def bind_with_fallback(bind, host: str, port: int,
                       auto_port: bool = False,
                       surface: str = "metrics"):
    """The one shared ``--auto-port`` path for every pressio listener.

    Calls ``bind(host, port)``; on ``EADDRINUSE`` the collision is
    counted (``pressio_<surface>_port_in_use_total``) and then either
    the bind is retried on port 0 (``auto_port=True`` — the kernel
    hands out a free port, so concurrent startups cannot race on a
    fixed number) or a typed :class:`PortInUseError` is raised.

    ``serve-metrics`` and ``serve`` both route their sockets through
    here — the regression test for concurrent startup pins that they
    stay on this path rather than growing divergent retry loops.
    """
    try:
        return bind(host, port)
    except OSError as e:
        if e.errno != errno.EADDRINUSE:
            raise
        runtime.count(
            f"pressio_{surface}_port_in_use_total",
            f"{surface} startups that hit EADDRINUSE",
            host=host, port=str(port))
        if auto_port and port != 0:
            return bind(host, 0)
        raise PortInUseError(host, port, surface=surface) from e


class _Threads:
    daemon_threads = True
    allow_reuse_address = True
    request_queue_size = 128
    listener: "HTTPListener"


class _TCPServer(_Threads, socketserver.ThreadingTCPServer):
    pass


class _UnixServer(_Threads, socketserver.ThreadingUnixStreamServer):
    pass


class _Connection(socketserver.StreamRequestHandler):
    """Keep-alive HTTP/1.1 loop, one thread per connection."""

    disable_nagle_algorithm = True
    rbufsize = 64 * 1024
    wbufsize = 0

    def handle(self) -> None:
        listener = self.server.listener
        while not listener.stopping:
            try:
                if not self._handle_one(listener):
                    return
            except (ConnectionError, BrokenPipeError, OSError):
                return

    def _handle_one(self, listener: "HTTPListener") -> bool:
        line = self.rfile.readline(8192)
        if not line:
            return False
        try:
            method, path, version = line.decode("latin-1").split(None, 2)
        except ValueError:
            self._respond(400, b"malformed request line\n", TEXT)
            return False
        length = 0
        keep_alive = not version.startswith("HTTP/1.0")
        while True:
            raw = self.rfile.readline(8192)
            if raw in (b"\r\n", b"\n", b""):
                break
            # exact-case fast path first: our own client always sends
            # "Content-Length:"/"Host:", so the general (decode + strip
            # + lower) parse only runs for foreign clients
            if raw.startswith(b"Content-Length:"):
                value = raw[15:]
            elif raw.startswith(b"Host:"):
                continue
            else:
                name, _, value = raw.decode("latin-1").partition(":")
                name = name.strip().lower()
                if name == "connection":
                    keep_alive = value.strip().lower() != "close"
                if name != "content-length":
                    continue
            try:
                length = int(value)
            except ValueError:
                self._respond(400, b"bad content-length\n", TEXT)
                return False
        if "?" in path:
            path = path.split("?", 1)[0]
        route = listener.routes.get(path)
        if length > listener.max_body:
            # drain would be unbounded; answer and drop the connection
            status, headers, out = listener.oversize(length)
            self._respond(status, out, route[1] if route else TEXT, headers)
            return False
        body: bytes | memoryview = b""
        pooled = None
        if 0 < length <= 16384:
            # tiny bodies (shm-descriptor frames) skip the pool: the
            # acquire/release pair costs more than the read itself.
            # Kept as bytes so the decode memo can key on it directly.
            data = self.rfile.read(length)
            if len(data) != length:
                return False
            body = data
        elif length:
            pooled = _pool.acquire((length,), np.uint8)
        try:
            if pooled is not None:
                body = memoryview(pooled)[:length]
                read = 0
                while read < length:
                    n = self.rfile.readinto(body[read:])
                    if not n:
                        return False
                    read += n
            extra = None if keep_alive else {"Connection": "close"}
            if route is None:
                self._respond(404, b"not found\n", TEXT, extra)
            elif method != route[0]:
                self._respond(405, f"use {route[0]}\n".encode(), TEXT,
                              extra)
            else:
                status, headers, out = route[2](body)
                if extra:
                    headers = {**headers, **extra}
                self._respond(status, out, route[1], headers)
        finally:
            if pooled is not None:
                del body  # the pooled buffer goes back; drop our view
                _pool.release(pooled)
        return keep_alive

    def _respond(self, status: int, body: bytes, content_type: bytes,
                 extra: dict[str, str] | None = None) -> None:
        if status == 200 and not extra:
            self.wfile.write(
                b"HTTP/1.1 200 OK\r\nContent-Type: %s\r\n"
                b"Content-Length: %d\r\n\r\n" % (content_type, len(body))
                + body)
            return
        head = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
                f"Content-Type: {content_type.decode('latin-1')}",
                f"Content-Length: {len(body)}"]
        for key, value in (extra or {}).items():
            head.append(f"{key}: {value}")
        head.append("\r\n")
        self.wfile.write("\r\n".join(head).encode("latin-1") + body)


class _UnixConnection(_Connection):
    # setting TCP_NODELAY on an AF_UNIX socket raises; there is no
    # Nagle to disable there in the first place
    disable_nagle_algorithm = False


def _payload_too_large(length: int) -> Reply:
    return 413, {}, b"payload too large\n"


class HTTPListener:
    """One route table served on a TCP port and optionally a unix socket.

    ``oversize(length)`` answers a request whose declared body exceeds
    ``max_body`` (the connection is dropped after it, since draining
    would be unbounded).  Bodies above 16 KiB are read into native
    buffer-pool blocks and released on every exit path.
    """

    def __init__(self, routes: Routes, max_body: int = 1 << 20,
                 oversize: Callable[[int], Reply] = _payload_too_large,
                 ) -> None:
        self.routes = {path: (method, ctype.encode("latin-1"), handler)
                       for path, (method, ctype, handler) in routes.items()}
        self.max_body = int(max_body)
        self.oversize = oversize
        self.stopping = False
        self.port = 0
        self.unix_path: str | None = None
        self._servers: list[tuple[socketserver.BaseServer,
                                  threading.Thread]] = []

    def start(self, host: str, port: int, auto_port: bool = False,
              surface: str = "metrics") -> "HTTPListener":
        """Bind the TCP port (see :func:`bind_with_fallback`) and serve."""
        tcp = bind_with_fallback(
            lambda h, p: _TCPServer((h, p), _Connection),
            host, port, auto_port=auto_port, surface=surface)
        self.port = tcp.server_address[1]
        self._serve(tcp, f"pressio-{surface}")
        return self

    def listen_unix(self, path: str) -> str | None:
        """Also serve on an ``AF_UNIX`` socket; None if refused here."""
        try:
            if os.path.exists(path):
                os.unlink(path)
            srv = _UnixServer(path, _UnixConnection)
        except OSError:
            return None  # no AF_UNIX here; TCP still serves
        self.unix_path = path
        self._serve(srv, "pressio-uds")
        return path

    def _serve(self, srv: _Threads, name: str) -> None:
        srv.listener = self
        thread = threading.Thread(
            target=srv.serve_forever, kwargs={"poll_interval": 0.05},
            name=name, daemon=True)
        thread.start()
        self._servers.append((srv, thread))

    def stop(self) -> None:
        self.stopping = True
        for srv, thread in self._servers:
            srv.shutdown()
            srv.server_close()
            thread.join(timeout=5)
        self._servers.clear()
        if self.unix_path is not None:
            try:
                os.unlink(self.unix_path)
            except FileNotFoundError:
                pass
            self.unix_path = None


def render_metrics(registry: MetricsRegistry | None) -> bytes:
    """The one ``/metrics`` body: bridge gauges refreshed, then rendered."""
    if registry is None:
        return (b"# metrics collection is disabled "
                b"(call repro.obs.enable_metrics())\n")
    from ..trace import runtime as trace_runtime

    ctx = trace_runtime.active_tracer()
    if ctx is not None:
        bridge.ingest_trace(ctx, registry)
    bridge.ingest_runtime(registry)
    return prometheus.render(registry).encode("utf-8")


def observability_routes(
        health: Callable[[], bytes],
        registry: Callable[[], MetricsRegistry | None] | None = None,
        ) -> Routes:
    """``GET /metrics`` over ``registry()`` (default: the active
    registry) and ``GET /healthz`` answering ``health()``."""
    def metrics(_body):
        reg = registry() if registry is not None else runtime.ACTIVE
        return 200, {}, render_metrics(reg)

    def healthz(_body):
        return 200, {}, health()

    return {"/metrics": ("GET", prometheus.CONTENT_TYPE, metrics),
            "/healthz": ("GET", JSON, healthz),
            "/health": ("GET", JSON, healthz)}


class MetricsServer:
    """Serves :func:`observability_routes` on an :class:`HTTPListener`."""

    def __init__(self, registry: MetricsRegistry | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 auto_port: bool = False) -> None:
        self._registry = registry
        self._host = host
        self._requested_port = port
        self._auto_port = auto_port
        self._http: HTTPListener | None = None
        self._started_at = 0.0

    # -- lifecycle --------------------------------------------------------
    def start(self) -> "MetricsServer":
        if self._http is not None:
            raise RuntimeError("server already started")
        routes = observability_routes(self._health_body,
                                      lambda: self.registry)
        self._http = HTTPListener(routes).start(
            self._host, self._requested_port,
            auto_port=self._auto_port, surface="metrics")
        self._started_at = time.monotonic()
        return self

    def stop(self) -> None:
        if self._http is None:
            return
        self._http.stop()
        self._http = None

    def __enter__(self) -> "MetricsServer":
        return self.start() if self._http is None else self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- introspection -----------------------------------------------------
    @property
    def registry(self) -> MetricsRegistry | None:
        """The pinned registry, or the ambient one when none was pinned."""
        return self._registry if self._registry is not None else runtime.ACTIVE

    @property
    def port(self) -> int:
        if self._http is None:
            raise RuntimeError("server not started")
        return self._http.port

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}"

    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self._started_at if self._http else 0.0

    def _health_body(self) -> bytes:
        registry = self.registry
        operations = 0.0
        if registry is not None:
            family = registry.get("pressio_operations_total")
            if family is not None:
                operations = sum(child.value
                                 for _, child in family.samples())
        payload = {
            "status": "ok",
            "uptime_seconds": round(self.uptime_seconds, 3),
            "collecting": registry is not None,
            "operations": operations,
        }
        return json.dumps(payload).encode("utf-8") + b"\n"


def start_server(port: int = 0, host: str = "127.0.0.1",
                 registry: MetricsRegistry | None = None,
                 auto_port: bool = False) -> MetricsServer:
    """Enable collection (if needed) and serve it in the background.

    When no registry is passed and none is active, a fresh one is
    installed via :func:`repro.obs.runtime.enable_metrics` so operations
    that follow are counted without further setup.  ``auto_port=True``
    falls back to an OS-assigned port when the requested one is taken.
    """
    if registry is None and runtime.ACTIVE is None:
        runtime.enable_metrics()
    return MetricsServer(registry=registry, host=host, port=port,
                         auto_port=auto_port).start()
