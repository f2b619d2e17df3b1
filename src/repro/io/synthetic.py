"""Synthetic and adapter IO plugins: ``iota``, ``select``, ``noop``.

* ``iota`` — fills a buffer with sequentially increasing values
  (``std::iota`` of the glossary), handy for tests and demos;
* ``select`` — reads a sub-region of another IO plugin's output;
* ``noop`` — returns a held buffer (plumbing for pipelines and tests).
"""

from __future__ import annotations

import numpy as np

from ..core.configurable import Field
from ..core.data import PressioData
from ..core.dtype import DType, dtype_to_numpy
from ..core.io import PressioIO
from ..core.options import OptionType, PressioOptions
from ..core.registry import io_plugin, io_registry
from ..core.status import InvalidDimensionsError, IOError_

__all__ = ["IotaIO", "SelectIO", "NoopIO"]


@io_plugin("iota")
class IotaIO(PressioIO):
    """Generates 0, 1, 2, ... shaped by the template (or io:dims)."""

    fields = (Field("iota:start", "_start", OptionType.DOUBLE),)

    def __init__(self) -> None:
        super().__init__()
        self._start = 0.0

    def read(self, template: PressioData | None = None) -> PressioData:
        if template is None or template.num_dimensions == 0:
            raise IOError_("iota requires a typed template with dims")
        n = template.num_elements
        np_dtype = dtype_to_numpy(template.dtype)
        arr = (np.arange(n, dtype=np.float64) + self._start).astype(np_dtype)
        return PressioData.from_numpy(arr.reshape(template.dims), copy=False)


@io_plugin("select")
class SelectIO(PressioIO):
    """Sub-region view over another IO plugin.

    Options: ``select:io`` (inner plugin id), ``select:start`` /
    ``select:stop`` / ``select:step`` as string lists, plus the inner
    plugin's own options passed through.
    """

    fields = (
        Field("select:io", "_inner_id", OptionType.STRING),
        Field("select:start", "_start", OptionType.STRING_LIST),
        Field("select:stop", "_stop", OptionType.STRING_LIST),
        Field("select:step", "_step", OptionType.STRING_LIST),
    )

    def __init__(self) -> None:
        super().__init__()
        self._inner_id = "posix"
        self._inner: PressioIO = io_registry.create("posix")
        self._start: list[str] = []
        self._stop: list[str] = []
        self._step: list[str] = []

    def _options(self) -> PressioOptions:
        return super()._options().merge(self._inner.get_options())

    def _set_options(self, options: PressioOptions) -> None:
        # naming another inner plugin creates it
        inner_id = options.get("select:io")
        if inner_id is not None and inner_id != self._inner_id:
            self._inner = io_registry.create(str(inner_id))
        super()._set_options(options)
        self._inner.set_options(options)

    def _slices(self, ndim: int) -> tuple[slice, ...]:
        def at(lst: list[str], i: int, default: int | None) -> int | None:
            return int(lst[i]) if i < len(lst) else default

        return tuple(
            slice(at(self._start, i, None), at(self._stop, i, None),
                  at(self._step, i, None))
            for i in range(ndim)
        )

    def read(self, template: PressioData | None = None) -> PressioData:
        full = self._inner.read(template)
        arr = np.asarray(full.to_numpy())
        region = arr[self._slices(arr.ndim)]
        if region.size == 0:
            raise InvalidDimensionsError(
                f"selection {self._slices(arr.ndim)} is empty for shape "
                f"{arr.shape}"
            )
        return PressioData.from_numpy(np.ascontiguousarray(region), copy=False)

    def write(self, data: PressioData) -> None:
        self._inner.write(data)


@io_plugin("noop")
class NoopIO(PressioIO):
    """Holds one buffer; read returns it, write replaces it."""

    def __init__(self) -> None:
        super().__init__()
        self.held: PressioData | None = None

    def read(self, template: PressioData | None = None) -> PressioData:
        if self.held is None:
            raise IOError_("noop io holds no buffer")
        return self.held

    def write(self, data: PressioData) -> None:
        self.held = data
