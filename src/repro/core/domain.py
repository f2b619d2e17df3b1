"""Memory domains: where a :class:`~repro.core.data.PressioData` buffer lives.

The paper's data abstraction carries a deleter function pointer plus
optional state so buffers allocated with ``malloc``, ``mmap``,
``sycl::malloc_device`` and friends can all be freed correctly
(Section IV-A).  In Python the garbage collector usually handles this,
but the *semantics* still matter for three reproduction-relevant reasons:

* mmap-backed buffers must be flushed/closed deterministically,
* shared-memory buffers used by the parallel meta-compressors must be
  unlinked exactly once,
* "move" construction transfers ownership so the library can document who
  frees what — the behaviour the paper contrasts against leaky designs.
"""

from __future__ import annotations

import mmap
import os
from typing import Callable

from .status import IOError_

__all__ = [
    "Domain",
    "MallocDomain",
    "NonOwningDomain",
    "MmapDomain",
    "CallbackDomain",
]


class Domain:
    """Base class describing ownership and release of a memory region."""

    #: short identifier reported through introspection
    domain_id = "abstract"

    #: True when freeing is this object's responsibility
    owns_memory = False

    def release(self) -> None:
        """Free the underlying region.  Idempotent."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} owns={self.owns_memory}>"


class MallocDomain(Domain):
    """Ordinary heap memory owned by the data object (``malloc`` analog)."""

    domain_id = "malloc"
    owns_memory = True


class NonOwningDomain(Domain):
    """A shallow view of memory owned elsewhere (noop deleter analog)."""

    domain_id = "nonowning"
    owns_memory = False


class MmapDomain(Domain):
    """A file-backed memory mapping, released by un-mapping.

    Demonstrates the deleter-with-state design from the paper: the state
    is the ``mmap.mmap`` object and (optionally) the file descriptor.
    """

    domain_id = "mmap"
    owns_memory = True

    def __init__(self, mapping: mmap.mmap, fd: int | None = None):
        self._mapping = mapping
        self._fd = fd
        self._released = False

    @classmethod
    def map_file(cls, path: str | os.PathLike, writable: bool = False) -> tuple["MmapDomain", memoryview]:
        """Map ``path`` and return the domain plus a memoryview of it."""
        flags = os.O_RDWR if writable else os.O_RDONLY
        fd = os.open(path, flags)
        try:
            size = os.fstat(fd).st_size
            if size == 0:
                raise IOError_(f"cannot mmap empty file: {path}")
            prot = mmap.PROT_READ | (mmap.PROT_WRITE if writable else 0)
            mapping = mmap.mmap(fd, size, prot=prot)
        except Exception:
            os.close(fd)
            raise
        domain = cls(mapping, fd)
        return domain, memoryview(mapping)

    def flush(self) -> None:
        if not self._released:
            self._mapping.flush()

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self._mapping.close()
        if self._fd is not None:
            os.close(self._fd)


class CallbackDomain(Domain):
    """User-supplied deleter callback with optional opaque state.

    This is the direct analog of ``pressio_data_new_move``'s
    ``(deleter, metadata)`` pair.
    """

    domain_id = "callback"
    owns_memory = True

    def __init__(self, deleter: Callable[[object], None], state: object = None):
        self._deleter = deleter
        self._state = state
        self._released = False

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self._deleter(self._state)
