"""``posix`` IO: flat binary files via read/write, and ``mmap`` IO.

Flat binary carries no metadata, so reads require a template describing
dtype and dims (or read the whole file as bytes when none is given) —
exactly the semantics of libpressio's posix plugin.
"""

from __future__ import annotations

import os

import numpy as np

from ..core.configurable import Field
from ..core.data import PressioData
from ..core.dtype import DType, dtype_to_numpy
from ..core.io import PressioIO
from ..core.options import OptionType
from ..core.registry import io_plugin
from ..core.status import IOError_

__all__ = ["PosixIO", "MmapIO"]


class _PathIO(PressioIO):
    """Shared ``io:path`` option handling."""

    fields = (Field("io:path", "_path", OptionType.STRING),)

    def __init__(self) -> None:
        super().__init__()
        self._path = ""

    def _require_path(self) -> str:
        if not self._path:
            raise IOError_("io:path option is not set")
        return self._path


@io_plugin("posix")
class PosixIO(_PathIO):
    """Flat binary files through ordinary read/write."""

    def read(self, template: PressioData | None = None) -> PressioData:
        path = self._require_path()
        if not os.path.exists(path):
            raise IOError_(f"no such file: {path}")
        if template is None or template.num_dimensions == 0:
            with open(path, "rb") as fh:
                return PressioData.from_bytes(fh.read())
        np_dtype = dtype_to_numpy(template.dtype)
        n = template.num_elements
        arr = np.fromfile(path, dtype=np_dtype, count=n)
        if arr.size != n:
            raise IOError_(
                f"{path} holds {arr.size} elements, template needs {n}"
            )
        return PressioData.from_numpy(arr.reshape(template.dims), copy=False)

    def write(self, data: PressioData) -> None:
        path = self._require_path()
        with open(path, "wb") as fh:
            fh.write(data.to_bytes())


@io_plugin("mmap")
class MmapIO(_PathIO):
    """Flat binary files mapped into memory (zero read copy).

    The returned buffer's deleter un-maps the file — the memory-domain
    design from Section IV-A in action.
    """

    def read(self, template: PressioData | None = None) -> PressioData:
        path = self._require_path()
        if template is None or template.num_dimensions == 0:
            raise IOError_("mmap io requires a typed template with dims")
        return PressioData.from_file_mmap(path, template.dtype, template.dims)

    def write(self, data: PressioData) -> None:
        # writing through mmap requires pre-sizing; fall back to plain IO
        path = self._require_path()
        with open(path, "wb") as fh:
            fh.write(data.to_bytes())
