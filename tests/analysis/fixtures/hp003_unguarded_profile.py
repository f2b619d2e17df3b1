"""Seeded HP001 violations: unguarded observer hooks in hot functions.

``compress`` binds a tracer span outside a ``with`` and
``_encode_codes`` constructs a profiler without a sentinel guard — both
run on every operation even with observability disabled.
``_decode_codes`` opens its span as ``with _trace.stage(...)`` (clean:
the shared null context when tracing is off) but annotates it without a
guard, which fires.  ``decompress`` is the negative control: the same
hook in the statement-form guard stays clean.
"""

from contextlib import nullcontext

from repro import profile as _profile
from repro.trace import runtime as _trace


def compress(data):
    span = _trace.stage("fx:quantize")  # HP001: unguarded tracer hook
    with span:
        return bytes(data)


def _encode_codes(codes):
    prof = _profile.StageProfiler("fx")  # HP001: unguarded profiler hook
    with prof:
        return bytes(codes)


def _decode_codes(payload):
    with _trace.stage("fx:entropy"):  # clean: null context when off
        _trace.annotate(payload_bytes=len(payload))  # HP001: unguarded
        return bytes(payload)


def decompress(stream):
    if _trace.ACTIVE is not None:
        span = _trace.stage("fx:decode")
    else:
        span = nullcontext()
    with span:
        return bytes(stream)
