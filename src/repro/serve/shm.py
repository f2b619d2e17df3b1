"""Shared-memory handoff: attach/view caching and leak-proof cleanup.

The zero-copy hot path works like this: the client creates a
``multiprocessing.shared_memory`` segment, writes the ndarray into it
once, and sends only a descriptor (name, offset, nbytes) in the wire
header.  The worker attaches the segment and builds an ndarray view
with ``np.frombuffer`` — no payload bytes ever cross the socket and no
copy is made server-side.

Attaching a segment and constructing the view cost ~25µs, which is
real money against the 17.5% overhead budget, so both are cached, and
:class:`SegmentCache` is their one owner:

* attach cache — segment name -> open ``SharedMemory`` handle;
* view cache — (name, offset, dtype, dims) -> the request-ready
  (read-only :class:`PressioData`, raw ``memoryview``) pair the worker
  pool compresses from.

Cleanup is the subtle part and drives two quirks handled here:

* CPython's ``resource_tracker`` registers *attached* segments on 3.11+
  and then spuriously warns (and unlinks!) at exit; we unregister right
  after attaching since the creator — the client — owns the lifetime.
* ``SharedMemory.close()`` raises ``BufferError`` while numpy views are
  alive, so :meth:`SegmentCache.close_all` drops the view cache and
  collects garbage before closing, and tolerates stragglers.

The daemon never creates segments: results that outgrow the client's
output segment go back inline, so every segment's lifetime belongs to
the client that created it.
"""

from __future__ import annotations

import gc
import secrets
import threading
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from ..core.data import PressioData
from ..core.dtype import dtype_from_numpy
from .errors import BadPayloadError, SegmentUnavailableError
from .wire import ShmRef, element_count

__all__ = ["SegmentCache", "create_segment", "attach_readonly"]


#: Names created by THIS process.  CPython 3.11 registers segments with
#: the resource tracker on attach as well as create; we unregister after
#: attaching (the creator owns the lifetime) — but only for segments
#: created elsewhere, or an in-process client+server pair would strip
#: the creator's registration and its unlink() would double-unregister.
_CREATED_HERE: set[str] = set()


def _untrack(seg: shared_memory.SharedMemory) -> None:
    """Stop resource_tracker from owning a segment we merely attached."""
    # best-effort: the tracker API is private and varies across CPython
    # patch levels; a failed unregister only risks a spurious cleanup
    # warning at interpreter exit, never a leak
    try:
        resource_tracker.unregister(seg._name, "shared_memory")
    # pressio-lint: disable=PC004
    except Exception:  # noqa: BLE001 - tracker internals are best-effort
        pass


def create_segment(nbytes: int,
                   prefix: str = "psv") -> shared_memory.SharedMemory:
    """Create a fresh named segment (creator owns unlink)."""
    name = f"{prefix}_{secrets.token_hex(6)}"
    seg = shared_memory.SharedMemory(name=name, create=True,
                                     size=max(int(nbytes), 1))
    _CREATED_HERE.add(name)
    return seg


def attach_readonly(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without adopting its lifetime."""
    try:
        seg = shared_memory.SharedMemory(name=name, create=False)
    except (FileNotFoundError, PermissionError, ValueError) as exc:
        raise SegmentUnavailableError(
            f"cannot attach shared-memory segment {name!r}: {exc}") from None
    if name not in _CREATED_HERE:
        _untrack(seg)
    return seg


class SegmentCache:
    """Per-daemon owner of everything derived from a segment: the
    attached handle and the request-ready input views over it."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._attached: dict[str, shared_memory.SharedMemory] = {}
        self._views: dict[tuple, tuple[PressioData, memoryview]] = {}
        self.attaches = 0
        self.view_builds = 0
        self.view_hits = 0

    def segment(self, name: str) -> shared_memory.SharedMemory:
        # GIL-atomic read; the hot path never takes the lock
        seg = self._attached.get(name)
        if seg is not None:
            return seg
        seg = attach_readonly(name)
        with self._lock:
            race = self._attached.setdefault(name, seg)
            if race is not seg:
                seg.close()
                seg = race
            else:
                self.attaches += 1
        return seg

    def input_data(self, ref: ShmRef, dtype: str, dims: tuple[int, ...],
                   ) -> tuple[PressioData, memoryview]:
        """A segment slice as a request's input: a read-only
        :class:`PressioData` over it and its raw bytes, zero-copy and
        cached until the segment is forgotten."""
        key = (ref.name, ref.offset, dtype, dims)
        # GIL-atomic read; the cached pair was validated when it was
        # built, so a hit skips every check.  Only the hit count, a
        # read-modify-write, takes the lock.
        hit = self._views.get(key)
        if hit is not None:
            with self._lock:
                self.view_hits += 1
            return hit
        dt = np.dtype(dtype)
        dtype_from_numpy(dt)  # reject dtypes the core cannot name
        seg = self.segment(ref.name)
        count = element_count(dims)
        need = count * dt.itemsize
        if need != ref.nbytes:
            raise BadPayloadError(
                f"shm slice is {ref.nbytes} bytes but dtype/dims imply {need}")
        if ref.offset + need > seg.size:
            raise BadPayloadError(
                f"shm slice [{ref.offset}, {ref.offset + need}) exceeds "
                f"segment size {seg.size}")
        arr = np.frombuffer(seg.buf, dtype=dt, count=count,
                            offset=ref.offset)
        arr = arr.reshape(dims if dims else (1,))
        arr.flags.writeable = False
        data = PressioData.from_numpy(arr, copy=False)
        hit = (data, data.as_memoryview())
        with self._lock:
            self._views[key] = hit
            self.view_builds += 1
        return hit

    def bytes_view(self, ref: ShmRef) -> memoryview:
        """Raw byte slice of a segment (compressed streams)."""
        seg = self.segment(ref.name)
        if ref.offset + ref.nbytes > seg.size:
            raise BadPayloadError(
                f"shm slice [{ref.offset}, {ref.offset + ref.nbytes}) "
                f"exceeds segment size {seg.size}")
        return seg.buf[ref.offset:ref.offset + ref.nbytes]

    def forget_views(self, name: str) -> None:
        """Drop a segment the client released: its cached input views,
        then its handle."""
        with self._lock:
            for key in [k for k in self._views if k[0] == name]:
                del self._views[key]
            seg = self._attached.pop(name, None)
        if seg is not None:
            gc.collect()
            try:
                seg.close()
            except BufferError:
                pass

    def close_all(self) -> None:
        """Release every attached segment.

        Views must die before close() or SharedMemory raises
        BufferError ("cannot close exported pointers exist") — hence
        the explicit drop + gc before the close loop.
        """
        with self._lock:
            self._views.clear()
            attached = list(self._attached.values())
            self._attached.clear()
        gc.collect()
        for seg in attached:
            try:
                seg.close()
            except BufferError:
                pass

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "attaches": self.attaches,
                "view_builds": self.view_builds,
                "view_hits": self.view_hits,
                "attached": len(self._attached),
            }
