"""The serve-layer error taxonomy: typed, HTTP-mapped, wire-encodable.

Every failure a client can observe has exactly one :class:`ServeError`
subclass, and each subclass pins three things at the class level:

* ``etype`` — the stable taxonomy slug carried in the wire response and
  in the ``pressio_serve_requests_total{status=...}`` metric label;
* ``http_status`` — the HTTP status line the daemon answers with;
* ``retryable`` — whether the client should retry (429/503 responses
  also carry ``Retry-After``, both as an HTTP header and in the frame).

Exceptions raised by the compression core (:mod:`repro.core.status`)
are folded into this taxonomy by :func:`map_exception`, so the client
sees one error vocabulary regardless of which layer failed.
"""

from __future__ import annotations

from typing import Any

from ..core.status import (
    CorruptStreamError,
    InvalidDimensionsError,
    InvalidOptionError,
    InvalidTypeError,
    MissingOptionError,
    PressioError,
    UnsupportedPluginError,
)

__all__ = [
    "ServeError",
    "BadFrameError",
    "VersionMismatchError",
    "UnknownOpError",
    "UnknownCompressorError",
    "OptionRejectedError",
    "BadPayloadError",
    "PayloadTooLargeError",
    "SegmentUnavailableError",
    "QuotaExceededError",
    "SaturatedError",
    "WorkerCrashedError",
    "CompressionRejectedError",
    "CorruptPayloadError",
    "InternalServeError",
    "map_exception",
    "error_for_etype",
]


class ServeError(Exception):
    """Base class: a request failed in a way the wire format can name."""

    etype = "internal"
    http_status = 500
    retryable = False

    def __init__(self, message: str,
                 retry_after_s: float | None = None) -> None:
        super().__init__(message)
        self.message = message
        self.retry_after_s = retry_after_s

    def to_payload(self) -> dict[str, Any]:
        """The ``error`` object embedded in a wire response header."""
        payload: dict[str, Any] = {
            "etype": self.etype,
            "http": self.http_status,
            "retryable": self.retryable,
            "message": self.message,
        }
        if self.retry_after_s is not None:
            payload["retry_after_s"] = round(float(self.retry_after_s), 3)
        return payload


class BadFrameError(ServeError):
    """The request bytes are not a parseable ``pressio-serve/1`` frame."""

    etype = "bad-frame"
    http_status = 400


class VersionMismatchError(ServeError):
    """The frame parsed but declares an incompatible wire version."""

    etype = "version-mismatch"
    http_status = 400


class UnknownOpError(ServeError):
    """The frame names an operation the daemon does not implement."""

    etype = "unknown-op"
    http_status = 400


class UnknownCompressorError(ServeError):
    """The requested compressor id is not in the registry."""

    etype = "unknown-compressor"
    http_status = 404


class OptionRejectedError(ServeError):
    """The compressor rejected the request's options."""

    etype = "bad-option"
    http_status = 400


class BadPayloadError(ServeError):
    """dtype/dims/payload-length are inconsistent or unusable."""

    etype = "bad-payload"
    http_status = 400


class PayloadTooLargeError(ServeError):
    """The payload exceeds the daemon's configured maximum."""

    etype = "payload-too-large"
    http_status = 413


class SegmentUnavailableError(ServeError):
    """A referenced shared-memory segment cannot be attached."""

    etype = "shm-unavailable"
    http_status = 400


class QuotaExceededError(ServeError):
    """The tenant's token bucket is empty (per-tenant rate limit)."""

    etype = "quota-exceeded"
    http_status = 429
    retryable = True


class SaturatedError(ServeError):
    """The daemon is busy: too many requests in flight, or no
    execution permit came free in time."""

    etype = "saturated"
    http_status = 503
    retryable = True


class WorkerCrashedError(ServeError):
    """The request crashed mid-execution (induced fault); retry."""

    etype = "worker-crashed"
    http_status = 503
    retryable = True


class CompressionRejectedError(ServeError):
    """The compressor refused the data (bound/type/dims contract)."""

    etype = "compression-failed"
    http_status = 422


class CorruptPayloadError(ServeError):
    """A compressed payload failed to decode server-side."""

    etype = "corrupt-stream"
    http_status = 422


class InternalServeError(ServeError):
    """Unclassified server-side failure (counted, flight-recorded)."""

    etype = "internal"
    http_status = 500
    retryable = True


#: Core exception class -> serve taxonomy class, most specific first.
_CORE_MAP: tuple[tuple[type, type[ServeError]], ...] = (
    (UnsupportedPluginError, UnknownCompressorError),
    (CorruptStreamError, CorruptPayloadError),
    (InvalidOptionError, OptionRejectedError),
    (MissingOptionError, OptionRejectedError),
    (InvalidTypeError, BadPayloadError),
    (InvalidDimensionsError, BadPayloadError),
)


def map_exception(exc: BaseException) -> ServeError:
    """Fold any exception into the serve taxonomy.

    :class:`ServeError` passes through; core typed errors map to their
    client-facing counterparts; the generic :class:`PressioError` means
    the compressor rejected the data; everything else is internal.
    """
    if isinstance(exc, ServeError):
        return exc
    for core_cls, serve_cls in _CORE_MAP:
        if isinstance(exc, core_cls):
            return serve_cls(str(exc))
    if isinstance(exc, PressioError):
        return CompressionRejectedError(str(exc))
    return InternalServeError(f"{type(exc).__name__}: {exc}")


_BY_ETYPE = {
    cls.etype: cls
    for cls in (
        BadFrameError, VersionMismatchError, UnknownOpError,
        UnknownCompressorError, OptionRejectedError, BadPayloadError,
        PayloadTooLargeError, SegmentUnavailableError, QuotaExceededError,
        SaturatedError, WorkerCrashedError, CompressionRejectedError,
        CorruptPayloadError, InternalServeError,
    )
}


def error_for_etype(etype: str, message: str,
                    retry_after_s: float | None = None) -> ServeError:
    """Reconstruct a typed error from a wire ``error`` payload (client side)."""
    cls = _BY_ETYPE.get(str(etype), InternalServeError)
    return cls(message, retry_after_s=retry_after_s)
