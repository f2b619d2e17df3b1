"""Compression-as-a-service: the ``pressio serve`` daemon and client.

The paper measures out-of-process dispatch (spawn + copy) at ~17.5%
overhead (Section V(d)); this package serves every registered
compressor to concurrent multi-tenant clients over a persistent
daemon and beats that number by never spawning and never copying on
the hot path:

* :mod:`~repro.serve.daemon` — the daemon: a route table on
  :class:`repro.obs.server.HTTPListener`, the one keep-alive HTTP/1.1
  loop, over TCP and over ``AF_UNIX``;
* :mod:`~repro.serve.workers` — the worker pool: runs each compress /
  decompress / roundtrip on the connection thread that read it, under
  ``workers`` FIFO permits that also shed load past ``max_inflight``
  (503), and per-plugin thread-safety serialization;
* :mod:`~repro.serve.wire` — the versioned ``pressio-serve/1`` binary
  frame format;
* :mod:`~repro.serve.shm` — zero-copy payload handoff through
  ``multiprocessing.shared_memory`` + ``memoryview`` slices, and the
  one cache of segments and the input views over them;
* :mod:`~repro.serve.quota` — per-tenant token buckets (429);
* :mod:`~repro.serve.cache` — content-addressed LRU of compressed
  artifacts;
* :mod:`~repro.serve.errors` — the typed error taxonomy both sides
  share;
* :mod:`~repro.serve.client` — the socket-level HTTP client the CLI,
  bench, and conformance subjects drive.

See ``docs/SERVING.md`` for the wire spec, quota semantics, and the
measured overhead comparison.
"""

from .cache import ArtifactCache
from .client import ServeClient
from .daemon import ServeServer, start_serve_server
from .errors import (
    BadFrameError,
    BadPayloadError,
    CompressionRejectedError,
    CorruptPayloadError,
    InternalServeError,
    OptionRejectedError,
    PayloadTooLargeError,
    QuotaExceededError,
    SaturatedError,
    SegmentUnavailableError,
    ServeError,
    UnknownCompressorError,
    UnknownOpError,
    VersionMismatchError,
    WorkerCrashedError,
    error_for_etype,
    map_exception,
)
from .quota import QuotaManager, TokenBucket
from .shm import SegmentCache
from .wire import (
    CACHE_MODES,
    MAGIC,
    OPS,
    WIRE_VERSION,
    Request,
    Response,
    ShmRef,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from .workers import WorkerPool

__all__ = [
    "WIRE_VERSION", "MAGIC", "OPS", "CACHE_MODES",
    "Request", "Response", "ShmRef",
    "encode_request", "decode_request",
    "encode_response", "decode_response",
    "ServeServer", "start_serve_server", "ServeClient",
    "WorkerPool", "SegmentCache", "ArtifactCache",
    "QuotaManager", "TokenBucket",
    "ServeError", "BadFrameError", "VersionMismatchError",
    "UnknownOpError", "UnknownCompressorError", "OptionRejectedError",
    "BadPayloadError", "PayloadTooLargeError", "SegmentUnavailableError",
    "QuotaExceededError", "SaturatedError", "WorkerCrashedError",
    "CompressionRejectedError", "CorruptPayloadError",
    "InternalServeError", "map_exception", "error_for_etype",
]
