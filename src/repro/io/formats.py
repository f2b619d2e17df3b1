"""Self-describing format IO plugins: ``numpy`` (.npy) and ``csv``.

Both formats carry their own metadata, so reads need no template (the
template, when given, is validated against the file's contents).
"""

from __future__ import annotations

import os

import numpy as np

from ..core.configurable import Field
from ..core.data import PressioData
from ..core.dtype import dtype_to_numpy
from ..core.io import PressioIO
from ..core.options import OptionType
from ..core.registry import io_plugin
from ..core.status import IOError_
from .posix import _PathIO

__all__ = ["NumpyIO", "CsvIO"]


@io_plugin("numpy")
class NumpyIO(_PathIO):
    """NumPy ``.npy`` files (the format from the paper's glossary)."""

    def read(self, template: PressioData | None = None) -> PressioData:
        path = self._require_path()
        if not os.path.exists(path):
            raise IOError_(f"no such file: {path}")
        try:
            arr = np.load(path, allow_pickle=False)
        except ValueError as e:
            raise IOError_(f"not a valid .npy file: {path}: {e}") from None
        if template is not None and template.num_dimensions:
            if tuple(arr.shape) != template.dims:
                raise IOError_(
                    f"{path} has shape {arr.shape}, template expects "
                    f"{template.dims}"
                )
            arr = arr.astype(dtype_to_numpy(template.dtype), copy=False)
        return PressioData.from_numpy(arr, copy=False)

    def write(self, data: PressioData) -> None:
        path = self._require_path()
        np.save(path, np.asarray(data.to_numpy()), allow_pickle=False)


@io_plugin("csv")
class CsvIO(_PathIO):
    """Character-delimited values (at most 2-D)."""

    fields = _PathIO.fields + (
        Field("csv:delimiter", "_delimiter", OptionType.STRING),
        Field("csv:skip_rows", "_skip_rows", OptionType.INT64),
    )

    def __init__(self) -> None:
        super().__init__()
        self._delimiter = ","
        self._skip_rows = 0

    def read(self, template: PressioData | None = None) -> PressioData:
        path = self._require_path()
        if not os.path.exists(path):
            raise IOError_(f"no such file: {path}")
        try:
            arr = np.loadtxt(path, delimiter=self._delimiter,
                             skiprows=self._skip_rows, ndmin=2)
        except ValueError as e:
            raise IOError_(f"failed to parse csv {path}: {e}") from None
        if template is not None and template.num_dimensions:
            arr = arr.astype(dtype_to_numpy(template.dtype), copy=False)
            arr = arr.reshape(template.dims)
        return PressioData.from_numpy(arr, copy=False)

    def write(self, data: PressioData) -> None:
        path = self._require_path()
        arr = np.asarray(data.to_numpy())
        if arr.ndim > 2:
            raise IOError_(
                f"csv supports at most 2 dimensions, data has {arr.ndim}"
            )
        np.savetxt(path, np.atleast_2d(arr), delimiter=self._delimiter)
