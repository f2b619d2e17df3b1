"""Runtime race & resource sanitizer: instrumented pool and locks.

This is the dynamic half of the PR-9 sanitizer (the static half is
:mod:`repro.analysis.dataflow` and the ``RS*``/``LK*`` rule packs).
When enabled — programmatically via :func:`enable`, through
``pressio sanitize <cmd>``, or by running pytest with
``PRESSIO_SANITIZE=1`` — it wraps the seams PR 7–8 made concurrent:

* **pool handles** (:mod:`repro.native.pool`): released buffers are
  poisoned with ``0xDD`` and marked read-only, so a use-after-release
  *write* raises at the faulting line and a stale *read* returns
  recognizable garbage; releasing the same backing store twice is
  reported with both release stacks instead of silently aliasing two
  later acquires;
* **locks** (:data:`repro.meta.pipeline._stats_lock`, the
  :mod:`repro.obs.registry` family/registry locks, the two locks on
  the serve request path — the execution permits' and the shared-memory
  :class:`~repro.serve.shm.SegmentCache`'s — and anything wrapped
  explicitly with :func:`wrap_lock`): every acquisition extends a
  runtime lock-order graph; taking B under A after some path took A
  under B is reported as an inversion carrying **both** stacks — the
  dynamic shadow of the static ``LK002`` rule;
* **compressor inputs**: ``PressioCompressor._compress_op`` is wrapped
  to checksum the input buffer before and after the operation, so a
  plugin mutating its caller's array in place (input aliasing) is
  caught at the operation that did it;
* **threads**: :func:`enable` snapshots the live threads;
  :func:`report` flags any non-daemon thread started since that is
  still alive (an unjoined worker) at teardown.

Everything is installed by monkeypatching at :func:`enable` and fully
restored by :func:`disable`, so the sanitizer-off hot path is exactly
the shipped code — the paired-ratio micro-benchmark
``test_dormant_package_noop_overhead_within_noise`` in
``tests/trace/test_overhead.py`` pins that.
"""

from __future__ import annotations

import threading
import traceback
import zlib
from typing import Any, Callable

import numpy as np

__all__ = ["enable", "disable", "is_enabled", "report", "findings",
           "wrap_lock", "SanitizedLock", "SanitizerError"]

_POISON = 0xDD
_STACK_LIMIT = 12


class SanitizerError(RuntimeError):
    """Raised for sanitizer misuse (double enable, wrap while off)."""


def _stack(skip: int = 2) -> list[str]:
    """A trimmed formatted stack: innermost last, sanitizer frames cut."""
    frames = traceback.format_stack()[:-skip]
    return [line.rstrip() for line in frames[-_STACK_LIMIT:]]


class _Finding:
    __slots__ = ("kind", "message", "stacks")

    def __init__(self, kind: str, message: str,
                 stacks: dict[str, list[str]]):
        self.kind = kind
        self.message = message
        self.stacks = stacks

    def to_dict(self) -> dict:
        return {"kind": self.kind, "message": self.message,
                "stacks": self.stacks}


class _LockOrderGraph:
    """Runtime lock-order edges with the stacks that created them."""

    def __init__(self, state: "_SanitizerState"):
        self._state = state
        self._edges: dict[tuple[str, str], dict[str, list[str]]] = {}
        self._held = threading.local()
        self._mutex = threading.Lock()

    def _held_stack(self) -> list[tuple[str, list[str]]]:
        if not hasattr(self._held, "stack"):
            self._held.stack = []
        return self._held.stack

    def acquired(self, name: str) -> None:
        held = self._held_stack()
        here = _stack()
        for outer, outer_stack in held:
            if outer == name:
                continue
            edge = (outer, name)
            with self._mutex:
                known = edge in self._edges
                if not known:
                    self._edges[edge] = {"outer": outer_stack,
                                         "inner": here}
                reverse = self._edges.get((name, outer))
            if not known and reverse is not None:
                self._state.record(
                    "lock-order-inversion",
                    f"lock {name!r} taken while holding {outer!r}, but "
                    f"another path took {outer!r} while holding {name!r} "
                    f"— the orders deadlock under the right interleaving",
                    {"this-path-outer": outer_stack,
                     "this-path-inner": here,
                     "other-path-outer": reverse["outer"],
                     "other-path-inner": reverse["inner"]})
        held.append((name, here))

    def released(self, name: str) -> None:
        held = self._held_stack()
        for i in range(len(held) - 1, -1, -1):
            if held[i][0] == name:
                del held[i]
                return


class SanitizedLock:
    """A lock proxy feeding the runtime lock-order graph.

    Supports the subset of the ``threading.Lock`` interface the project
    uses: ``acquire``/``release``, context management, ``locked``.
    """

    def __init__(self, inner: Any, name: str, graph: _LockOrderGraph):
        self._inner = inner
        self._name = name
        self._graph = graph

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._graph.acquired(self._name)
        return got

    def release(self) -> None:
        self._graph.released(self._name)
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: Any) -> None:
        self.release()


class _SanitizerState:
    def __init__(self) -> None:
        self.findings: list[_Finding] = []
        self.mutex = threading.Lock()
        self.lock_graph = _LockOrderGraph(self)
        #: id(root) -> (root array kept alive, releasing stack)
        self.freed: dict[int, tuple[np.ndarray, list[str]]] = {}
        self.thread_baseline: set[int] = set()
        self.reported_threads: set[int] = set()
        self.pool_releases = 0
        self.pool_acquires = 0
        self.ops_checked = 0
        self._restores: list[Callable[[], None]] = []

    def record(self, kind: str, message: str,
               stacks: dict[str, list[str]] | None = None) -> None:
        with self.mutex:
            self.findings.append(_Finding(kind, message, stacks or {}))


#: the enabled sanitizer, or None — mirrors trace/obs ACTIVE globals
ACTIVE: _SanitizerState | None = None


def is_enabled() -> bool:
    return ACTIVE is not None


def findings() -> list[dict]:
    """Findings recorded so far (enabled or after disable)."""
    state = ACTIVE if ACTIVE is not None else _LAST
    if state is None:
        return []
    with state.mutex:
        return [f.to_dict() for f in state.findings]


_LAST: _SanitizerState | None = None


def wrap_lock(inner: Any, name: str) -> SanitizedLock:
    """Wrap an arbitrary lock so it feeds the runtime order graph."""
    if ACTIVE is None:
        raise SanitizerError("sanitizer is not enabled")
    return SanitizedLock(inner, name, ACTIVE.lock_graph)


# ---------------------------------------------------------------------------
# pool instrumentation
# ---------------------------------------------------------------------------
def _root_of(arr: np.ndarray) -> np.ndarray:
    root = arr
    while isinstance(root.base, np.ndarray):
        root = root.base
    return root


def _is_pooled_root(root: Any) -> bool:
    from ..native import pool as _pool

    if not isinstance(root, np.ndarray):
        return False
    if root.dtype != np.uint8 or root.ndim != 1:
        return False
    n = root.nbytes
    if n == 0 or n & (n - 1):
        return False
    cls = n.bit_length() - 1
    return _pool._MIN_CLASS <= cls <= _pool._MAX_CLASS


def _install_pool(state: _SanitizerState) -> None:
    from ..native import pool as _pool

    orig_acquire = _pool.acquire
    orig_release = _pool.release

    def acquire(shape, dtype=np.float64):
        out = orig_acquire(shape, dtype)
        state.pool_acquires += 1
        root = _root_of(out)
        if not root.flags.writeable:
            # recycled poisoned buffer: un-poison before handing out
            root.setflags(write=True)
            with state.mutex:
                state.freed.pop(id(root), None)
            out = root[:out.nbytes].view(out.dtype).reshape(out.shape)
        return out

    def release(*arrays):
        live: list[np.ndarray] = []
        for arr in arrays:
            root = _root_of(arr)
            if not _is_pooled_root(root):
                live.append(arr)
                continue
            with state.mutex:
                prior = state.freed.get(id(root))
            if prior is not None and not root.flags.writeable:
                state.record(
                    "double-release",
                    f"pool buffer of {root.nbytes} bytes released twice; "
                    f"the second release would alias two later acquires",
                    {"first-release": prior[1],
                     "second-release": _stack()})
                continue
            root[...] = _POISON
            # a view's writeable flag is fixed at creation, so freezing
            # the root alone would leave the caller's handle writable:
            # freeze every view on the .base chain we were handed too
            node = arr
            while isinstance(node, np.ndarray):
                node.setflags(write=False)
                node = node.base
            root.setflags(write=False)
            with state.mutex:
                state.freed[id(root)] = (root, _stack())
            state.pool_releases += 1
            # the free list stores the root read-only; the wrapped
            # acquire restores writeability before handing it back out
            live.append(root)
        if live:
            orig_release(*live)

    _pool.acquire = acquire
    _pool.release = release

    def restore() -> None:
        _pool.acquire = orig_acquire
        _pool.release = orig_release
        # un-poison everything still sitting in free lists (possibly on
        # other threads' locals — setflags is safe cross-thread) so
        # un-sanitized acquires never see a read-only buffer
        with state.mutex:
            roots = [root for root, _stk in state.freed.values()]
            state.freed.clear()
        for root in roots:
            root.setflags(write=True)

    state._restores.append(restore)


# ---------------------------------------------------------------------------
# lock instrumentation
# ---------------------------------------------------------------------------
def _install_locks(state: _SanitizerState) -> None:
    from ..meta import pipeline as _pipeline
    from ..obs import registry as _registry
    from ..obs import runtime as _obs_runtime
    from ..serve import shm as _shm
    from ..serve import workers as _workers

    graph = state.lock_graph

    orig_stats_lock = _pipeline._stats_lock
    _pipeline._stats_lock = SanitizedLock(
        orig_stats_lock, "meta.pipeline:_stats_lock", graph)

    orig_family_init = _registry.MetricFamily.__init__
    orig_registry_init = _registry.MetricsRegistry.__init__

    def family_init(self, *args, **kwargs):
        orig_family_init(self, *args, **kwargs)
        self._lock = SanitizedLock(
            self._lock, f"obs.registry:MetricFamily[{self.name}]", graph)

    def registry_init(self, *args, **kwargs):
        orig_registry_init(self, *args, **kwargs)
        self._lock = SanitizedLock(
            self._lock, "obs.registry:MetricsRegistry._lock", graph)

    orig_permits_init = _workers._FifoPermits.__init__
    orig_segments_init = _shm.SegmentCache.__init__

    def permits_init(self, *args, **kwargs):
        orig_permits_init(self, *args, **kwargs)
        self._lock = SanitizedLock(
            self._lock, "serve.workers:_FifoPermits._lock", graph)

    def segments_init(self, *args, **kwargs):
        orig_segments_init(self, *args, **kwargs)
        self._lock = SanitizedLock(
            self._lock, "serve.shm:SegmentCache._lock", graph)

    _registry.MetricFamily.__init__ = family_init
    _registry.MetricsRegistry.__init__ = registry_init
    _workers._FifoPermits.__init__ = permits_init
    _shm.SegmentCache.__init__ = segments_init

    wrapped_existing: list[tuple[Any, Any]] = []
    active = _obs_runtime.ACTIVE
    if active is not None and isinstance(active._lock, type(orig_stats_lock)):
        wrapped_existing.append((active, active._lock))
        active._lock = SanitizedLock(
            active._lock, "obs.registry:MetricsRegistry._lock", graph)

    def restore() -> None:
        _pipeline._stats_lock = orig_stats_lock
        _registry.MetricFamily.__init__ = orig_family_init
        _registry.MetricsRegistry.__init__ = orig_registry_init
        _workers._FifoPermits.__init__ = orig_permits_init
        _shm.SegmentCache.__init__ = orig_segments_init
        for owner, lock in wrapped_existing:
            owner._lock = lock

    state._restores.append(restore)


# ---------------------------------------------------------------------------
# input-aliasing instrumentation
# ---------------------------------------------------------------------------
def _checksum(data: Any) -> int | None:
    try:
        if not data.has_data:
            return None
        arr = data.to_numpy(writable=False)
    except (TypeError, ValueError, AttributeError):
        # non-tensor payloads (byte blobs, lazily-described buffers)
        # have no caller-visible array to alias
        return None
    if not isinstance(arr, np.ndarray):
        return None
    return zlib.adler32(np.ascontiguousarray(arr).tobytes())


def _install_compress_guard(state: _SanitizerState) -> None:
    from ..core.compressor import PressioCompressor

    orig = PressioCompressor._compress_op

    def guarded(self, input, output):
        before = _checksum(input)
        try:
            return orig(self, input, output)
        finally:
            state.ops_checked += 1
            if before is not None and _checksum(input) != before:
                state.record(
                    "input-aliasing",
                    f"compressor {self.get_name()!r} mutated its input "
                    f"buffer in place during compress(); inputs are "
                    f"caller-owned and must not be written",
                    {"operation": _stack()})

    PressioCompressor._compress_op = guarded
    state._restores.append(
        lambda: setattr(PressioCompressor, "_compress_op", orig))


# ---------------------------------------------------------------------------
# enable / disable / report
# ---------------------------------------------------------------------------
def enable() -> _SanitizerState:
    """Install all instrumentation; idempotent via :class:`SanitizerError`."""
    global ACTIVE
    if ACTIVE is not None:
        raise SanitizerError("sanitizer is already enabled")
    state = _SanitizerState()
    state.thread_baseline = {
        t.ident for t in threading.enumerate() if t.ident is not None}
    _install_pool(state)
    _install_locks(state)
    _install_compress_guard(state)
    ACTIVE = state
    return state


def disable() -> list[dict]:
    """Restore every patched seam; returns the findings recorded."""
    global ACTIVE, _LAST
    state = ACTIVE
    if state is None:
        return []
    _check_threads(state)
    for restore in reversed(state._restores):
        restore()
    state._restores.clear()
    ACTIVE = None
    _LAST = state
    with state.mutex:
        return [f.to_dict() for f in state.findings]


def _check_threads(state: _SanitizerState) -> None:
    for t in threading.enumerate():
        if t.ident in state.thread_baseline or t.daemon or not t.is_alive():
            continue
        if t.ident in state.reported_threads:
            continue
        state.reported_threads.add(t.ident)
        state.record(
            "unjoined-thread",
            f"thread {t.name!r} started under the sanitizer is still "
            f"running at teardown; worker threads must be joined")


def report() -> dict:
    """A JSON-ready report of everything observed so far."""
    state = ACTIVE if ACTIVE is not None else _LAST
    if state is None:
        return {"enabled": False, "findings": [], "stats": {}}
    if state is ACTIVE:
        _check_threads(state)
    with state.mutex:
        recorded = [f.to_dict() for f in state.findings]
    return {
        "enabled": state is ACTIVE,
        "findings": recorded,
        "stats": {
            "pool_acquires": state.pool_acquires,
            "pool_releases": state.pool_releases,
            "operations_checked": state.ops_checked,
            "lock_edges": len(state.lock_graph._edges),
        },
    }
