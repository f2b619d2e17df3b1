"""``PressioMetrics``: pluggable measurement of compression runs.

Metrics observe compression through begin/end hooks, exactly as
libpressio's ``libpressio_metrics_plugin`` does, and report their results
as a :class:`~repro.core.options.PressioOptions` so callers read them
through the same typed, introspectable interface as configuration.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .configurable import Configurable
from .options import PressioOptions

if TYPE_CHECKING:  # pragma: no cover
    from .data import PressioData

__all__ = ["PressioMetrics"]


class PressioMetrics(Configurable):
    """Base class for metrics plugins.

    Subclasses override any of the begin/end hooks; the compressor calls
    them around each operation.  ``get_metrics_results`` gathers the
    measured values.
    """

    plugin_kind = "metric"

    # -- lifecycle hooks -------------------------------------------------
    def begin_compress(self, input: "PressioData") -> None:
        """Called immediately before compression with the uncompressed input."""

    def end_compress(self, input: "PressioData", output: "PressioData") -> None:
        """Called immediately after compression with input and compressed output."""

    def begin_decompress(self, input: "PressioData") -> None:
        """Called immediately before decompression with the compressed input."""

    def end_decompress(self, input: "PressioData", output: "PressioData") -> None:
        """Called immediately after decompression with compressed input and output."""

    def begin_get_options(self) -> None:
        """Called when the owning compressor's options are queried."""

    def begin_set_options(self, options: PressioOptions) -> None:
        """Called when the owning compressor's options are changed."""

    # -- results -----------------------------------------------------------
    def get_metrics_results(self) -> PressioOptions:
        """Return measured values, qualified as ``<metric>:<name>``."""
        return PressioOptions()

    def reset(self) -> None:
        """Discard accumulated state so the plugin can be reused."""
