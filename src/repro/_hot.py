"""The shared hot-path sentinel for every observer subsystem.

:meth:`repro.core.compressor.PressioCompressor.compress` must stay
zero-cost when nothing is watching: the paper's Fig. 3 overhead numbers
are pinned by ``tests/trace/test_overhead.py`` to within 1 % of the
unguarded operation bodies.  There are three observer subsystems — the
tracer (:mod:`repro.trace.runtime`), the metrics registry
(:mod:`repro.obs.runtime`) and the flight recorder
(:mod:`repro.obs.flight`) — each with its own module-global ``ACTIVE``.
A naive guard would read three globals per call; instead every change
to an ``ACTIVE`` goes through :func:`swap`, and the hot path reads the
single ``ANY`` flag — the same one-global-read guard the tracer alone
needed.

This module imports nothing from :mod:`repro`, so every runtime can
import it without cycles.
"""

from __future__ import annotations

import threading
from types import ModuleType
from typing import Any

__all__ = ["ANY", "swap"]

#: True when a tracer, a metrics registry, or a flight recorder is
#: active.  Read-only for everyone except :func:`swap`.
ANY: bool = False

_LOCK = threading.Lock()
#: names of the observer modules whose ``ACTIVE`` is currently set
_ON: set[str] = set()


def swap(observer: ModuleType, value: Any) -> Any:
    """Install ``value`` as ``observer.ACTIVE``; return the one it replaced.

    ``value`` None turns that observer off.  Enabling, disabling and
    restoring the previous observer at the end of a scoped manager are
    all this one call, so ``ANY`` can never disagree with the three
    ``ACTIVE`` slots.
    """
    global ANY
    with _LOCK:
        previous = observer.ACTIVE
        observer.ACTIVE = value
        if value is None:
            _ON.discard(observer.__name__)
        else:
            _ON.add(observer.__name__)
        ANY = bool(_ON)
    return previous
