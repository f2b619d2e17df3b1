"""``PressioIO``: pluggable readers/writers for :class:`PressioData`.

IO plugins let tools move data between storage formats and compressors
without caring about either (the ``pressio_io`` component of Figure 1).
``read`` takes an optional template describing the expected dtype+dims
(needed for formats, like flat binary, that store no metadata).
"""

from __future__ import annotations

from .configurable import Configurable
from .data import PressioData

__all__ = ["PressioIO"]


class PressioIO(Configurable):
    """Base class for IO plugins."""

    plugin_kind = "io"

    def read(self, template: PressioData | None = None) -> PressioData:
        """Read a buffer; ``template`` supplies dtype/dims when the format
        itself carries none."""
        raise NotImplementedError

    def write(self, data: PressioData) -> None:
        """Write ``data`` to the configured destination."""
        raise NotImplementedError

    def supports_read(self) -> bool:
        return type(self).read is not PressioIO.read

    def supports_write(self) -> bool:
        return type(self).write is not PressioIO.write
