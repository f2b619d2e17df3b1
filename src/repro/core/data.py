"""``PressioData``: the typed, dimensioned buffer abstraction.

This is the direct analog of ``pressio_data`` from Section IV-A of the
paper: a pointer plus an array of dimensions, a dtype enum, and a deleter.
Construction mirrors the C API:

* :meth:`PressioData.empty` — dtype+dims, no allocation performed yet
  (used to describe the *expected* shape of a decompression output);
* :meth:`PressioData.owning` — dtype+dims, zero-initialized allocation;
* :meth:`PressioData.from_numpy` — copy or wrap an ndarray;
* :meth:`PressioData.move` — adopt an ndarray plus a deleter callback
  (the ``pressio_data_new_move`` analog);
* :meth:`PressioData.nonowning` — shallow view, never freed by us.

Dimensions are stored in **C (row-major) order, slowest first** — the
uniform convention the paper standardizes on; plugins that need Fortran
ordering (e.g. the zfp native API) translate internally.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .domain import (
    CallbackDomain,
    Domain,
    MallocDomain,
    MmapDomain,
    NonOwningDomain,
)
from .dtype import DType, dtype_from_numpy, dtype_size, dtype_to_numpy
from .status import InvalidDimensionsError, InvalidTypeError

__all__ = ["PressioData"]


class PressioData:
    """A typed, dimensioned, ownership-aware buffer.

    Attributes
    ----------
    dtype:
        element type as a :class:`~repro.core.dtype.DType`.
    dims:
        tuple of dimensions in C order (slowest varying first).  An empty
        tuple combined with ``has_data() == False`` describes a request
        for an unknown-size output (e.g. a compressed stream).
    """

    __slots__ = ("_dtype", "_dims", "_array", "_domain")

    def __init__(
        self,
        dtype: DType,
        dims: Sequence[int],
        array: np.ndarray | None,
        domain: Domain | None = None,
    ):
        self._dtype = DType(dtype)
        self._dims = tuple(int(d) for d in dims)
        if any(d < 0 for d in self._dims):
            raise InvalidDimensionsError(f"negative dimension in {self._dims}")
        self._array = array
        self._domain = domain if domain is not None else (
            MallocDomain() if array is not None else NonOwningDomain()
        )
        if array is not None:
            expected = int(np.prod(self._dims, dtype=np.int64)) if self._dims else 0
            if array.size != expected:
                raise InvalidDimensionsError(
                    f"buffer has {array.size} elements but dims {self._dims} "
                    f"imply {expected}"
                )
            if array.dtype != dtype_to_numpy(self._dtype):
                raise InvalidTypeError(
                    f"buffer dtype {array.dtype} does not match declared "
                    f"{self._dtype.name}"
                )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, dtype: DType, dims: Iterable[int] = ()) -> "PressioData":
        """Describe a buffer without allocating it.

        This mirrors ``pressio_data_new_empty``: used for output
        parameters whose size the plugin determines.
        """
        return cls(DType(dtype), tuple(dims), None, NonOwningDomain())

    @classmethod
    def owning(cls, dtype: DType, dims: Iterable[int]) -> "PressioData":
        """Allocate a zero-initialized owned buffer of dtype+dims."""
        dims = tuple(dims)
        arr = np.zeros(dims, dtype=dtype_to_numpy(DType(dtype)))
        return cls(DType(dtype), dims, arr.reshape(-1), MallocDomain())

    @classmethod
    def from_numpy(cls, array: np.ndarray, copy: bool = True) -> "PressioData":
        """Create from an ndarray; by default copies (owning semantics).

        Non-native byte order is converted to native (a copy), since
        every plugin reads the buffer as the native dtype its
        :class:`DType` names.
        """
        arr = np.ascontiguousarray(array)
        if not arr.dtype.isnative:
            arr = arr.astype(arr.dtype.newbyteorder("="))
        dtype = dtype_from_numpy(arr.dtype)
        flat = arr.reshape(-1)
        if copy:
            return cls(dtype, arr.shape, flat.copy(), MallocDomain())
        return cls(dtype, arr.shape, flat, NonOwningDomain())

    @classmethod
    def move(
        cls,
        array: np.ndarray,
        deleter: Callable[[object], None],
        state: object = None,
        dtype: DType | None = None,
        dims: Sequence[int] | None = None,
    ) -> "PressioData":
        """Adopt ``array`` with a user deleter (``pressio_data_new_move``)."""
        arr = np.ascontiguousarray(array)
        dt = DType(dtype) if dtype is not None else dtype_from_numpy(arr.dtype)
        dm = tuple(dims) if dims is not None else arr.shape
        return cls(dt, dm, arr.reshape(-1), CallbackDomain(deleter, state))

    @classmethod
    def nonowning(cls, array: np.ndarray) -> "PressioData":
        """Shallow, never-freed view of an existing ndarray."""
        return cls.from_numpy(array, copy=False)

    @classmethod
    def from_bytes(cls, payload: bytes | bytearray | memoryview) -> "PressioData":
        """Wrap an opaque byte string as a 1-D BYTE buffer (compressed data).

        ``bytes`` input is wrapped zero-copy (immutable, so sharing is
        safe); mutable buffers are copied to preserve value semantics.
        """
        if isinstance(payload, bytes):
            arr = np.frombuffer(payload, dtype=np.uint8)
            return cls(DType.BYTE, (arr.size,), arr, NonOwningDomain())
        arr = np.frombuffer(bytes(payload), dtype=np.uint8)
        return cls(DType.BYTE, (arr.size,), arr, MallocDomain())

    @classmethod
    def from_file_mmap(cls, path: str, dtype: DType, dims: Sequence[int]) -> "PressioData":
        """Memory-map a flat binary file as a typed buffer."""
        domain, view = MmapDomain.map_file(path)
        arr = np.frombuffer(view, dtype=dtype_to_numpy(DType(dtype)))
        n = int(np.prod(tuple(dims), dtype=np.int64))
        if arr.size < n:
            size = arr.size
            del arr, view  # drop exported views so the mapping can close
            domain.release()
            raise InvalidDimensionsError(
                f"file {path} holds {size} elements, dims need {n}"
            )
        return cls(DType(dtype), tuple(dims), arr[:n], domain)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def dtype(self) -> DType:
        return self._dtype

    @property
    def dims(self) -> tuple[int, ...]:
        return self._dims

    @property
    def num_dimensions(self) -> int:
        return len(self._dims)

    @property
    def num_elements(self) -> int:
        if not self._dims:
            return 0
        return int(np.prod(self._dims, dtype=np.int64))

    @property
    def size_in_bytes(self) -> int:
        return self.num_elements * dtype_size(self._dtype)

    def get_dimension(self, idx: int) -> int:
        """Dimension ``idx`` or 0 when out of range (C API parity)."""
        return self._dims[idx] if 0 <= idx < len(self._dims) else 0

    def has_data(self) -> bool:
        """True when an actual buffer is attached (not just a description)."""
        return self._array is not None

    @property
    def domain(self) -> Domain:
        return self._domain

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_numpy(self, writable: bool = False) -> np.ndarray:
        """View the buffer as an ndarray shaped by ``dims``.

        The returned array is read-only unless ``writable=True``; this
        enforces the const-ness guarantee discussed in Section IV-B.
        """
        if self._array is None:
            raise InvalidTypeError("PressioData holds no buffer (empty description)")
        view = self._array.reshape(self._dims if self._dims else (0,))
        if not writable:
            view = view.view()
            view.flags.writeable = False
        return view

    def to_bytes(self) -> bytes:
        """Serialize the raw buffer contents to a byte string (copies)."""
        if self._array is None:
            return b""
        return self._array.tobytes()

    def as_memoryview(self) -> memoryview:
        """Zero-copy read-only view of the raw buffer contents.

        Preferred over :meth:`to_bytes` on hot paths (plugin decompress
        takes this route so large compressed streams are never copied).
        """
        if self._array is None:
            return memoryview(b"")
        return memoryview(np.ascontiguousarray(self._array)).cast("B")

    def cast(self, dtype: DType) -> "PressioData":
        """Return a value-cast copy with the new element type."""
        target = dtype_to_numpy(DType(dtype))
        arr = self.to_numpy().astype(target)
        out = PressioData(DType(dtype), self._dims, arr.reshape(-1), MallocDomain())
        return out

    def reshape(self, dims: Sequence[int]) -> "PressioData":
        """Reinterpret the buffer with new dimensions (element count preserved).

        This is the primitive behind the ``resize`` meta-compressor.
        """
        dims = tuple(int(d) for d in dims)
        n = int(np.prod(dims, dtype=np.int64)) if dims else 0
        if n != self.num_elements:
            raise InvalidDimensionsError(
                f"reshape {self._dims} -> {dims} changes element count "
                f"({self.num_elements} -> {n})"
            )
        return PressioData(self._dtype, dims, self._array, NonOwningDomain())

    def clone(self) -> "PressioData":
        """Deep copy with owning semantics."""
        if self._array is None:
            return PressioData.empty(self._dtype, self._dims)
        return PressioData(
            self._dtype, self._dims, self._array.copy(), MallocDomain()
        )

    def release(self) -> None:
        """Explicitly free the underlying memory (``pressio_data_free``).

        The buffer reference is dropped *before* the domain releases so
        mmap-backed regions can close (no exported views may remain).
        """
        self._array = None
        self._domain.release()

    # ------------------------------------------------------------------
    # dunder helpers
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PressioData):
            return NotImplemented
        if self._dtype != other._dtype or self._dims != other._dims:
            return False
        if (self._array is None) != (other._array is None):
            return False
        if self._array is None:
            return True
        return bool(np.array_equal(self._array, other._array))

    def __hash__(self):  # PressioData is mutable through to_numpy(writable=True)
        raise TypeError("PressioData is unhashable")

    def __repr__(self) -> str:
        state = "data" if self.has_data() else "empty"
        return (
            f"PressioData(dtype={self._dtype.name}, dims={self._dims}, "
            f"{state}, domain={self._domain.domain_id})"
        )
