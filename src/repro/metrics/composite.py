"""``composite`` and ``history`` metrics.

``CompositeMetrics`` fans every hook out to a list of child plugins and
merges their results — this is what ``Pressio.get_metric([...])``
returns, matching ``pressio_new_metrics(library, names, n)`` from the
paper's Appendix A.

``HistoryMetrics`` appends every operation's sizes to a growing log,
useful for the time-series experiments the ``many_dependent``
meta-compressor drives.
"""

from __future__ import annotations

from ..core.configurable import set_each
from ..core.data import PressioData
from ..core.metrics import PressioMetrics
from ..core.options import PressioOptions
from ..core.registry import metric_plugin, metrics_registry

__all__ = ["CompositeMetrics", "HistoryMetrics"]


class CompositeMetrics(PressioMetrics):
    """Forwards every hook to child metrics and merges their results."""

    plugin_id = "composite"

    def __init__(self, plugins: list[PressioMetrics] | None = None) -> None:
        super().__init__()
        self.plugins: list[PressioMetrics] = list(plugins or [])

    @classmethod
    def from_ids(cls, metric_ids: list[str]) -> "CompositeMetrics":
        return cls([metrics_registry.create(mid) for mid in metric_ids])

    def begin_compress(self, input: PressioData) -> None:
        for p in self.plugins:
            p.begin_compress(input)

    def end_compress(self, input: PressioData, output: PressioData) -> None:
        for p in self.plugins:
            p.end_compress(input, output)

    def begin_decompress(self, input: PressioData) -> None:
        for p in self.plugins:
            p.begin_decompress(input)

    def end_decompress(self, input: PressioData, output: PressioData) -> None:
        for p in self.plugins:
            p.end_decompress(input, output)

    def begin_get_options(self) -> None:
        for p in self.plugins:
            p.begin_get_options()

    def begin_set_options(self, options: PressioOptions) -> None:
        for p in self.plugins:
            p.begin_set_options(options)

    def _options(self) -> PressioOptions:
        merged = PressioOptions()
        for p in self.plugins:
            merged = merged.merge(p.get_options())
        return merged

    def _set_options(self, options: PressioOptions) -> None:
        set_each(self.plugins, options)

    def _restore(self, before: PressioOptions) -> None:
        # _set_options undid every child from its own snapshot
        pass

    def get_metrics_results(self) -> PressioOptions:
        merged = PressioOptions()
        for p in self.plugins:
            merged = merged.merge(p.get_metrics_results())
        return merged

    def reset(self) -> None:
        for p in self.plugins:
            p.reset()

    def clone(self) -> "CompositeMetrics":
        return CompositeMetrics([p.clone() for p in self.plugins])


@metric_plugin("history")
class HistoryMetrics(PressioMetrics):
    """Log of (uncompressed, compressed) sizes for every operation."""

    def __init__(self) -> None:
        super().__init__()
        self.records: list[dict[str, int]] = []

    def end_compress(self, input: PressioData, output: PressioData) -> None:
        self.records.append({
            "op": 0,  # compress
            "uncompressed": input.size_in_bytes,
            "compressed": output.size_in_bytes,
        })

    def end_decompress(self, input: PressioData, output: PressioData) -> None:
        self.records.append({
            "op": 1,  # decompress
            "compressed": input.size_in_bytes,
            "decompressed": output.size_in_bytes,
        })

    def get_metrics_results(self) -> PressioOptions:
        results = PressioOptions()
        results.set("history:count", len(self.records))
        compressions = [r for r in self.records if r["op"] == 0]
        if compressions:
            total_in = sum(r["uncompressed"] for r in compressions)
            total_out = sum(r["compressed"] for r in compressions)
            results.set("history:total_uncompressed", total_in)
            results.set("history:total_compressed", total_out)
            if total_out:
                results.set("history:aggregate_ratio", total_in / total_out)
        return results

    def reset(self) -> None:
        self.records.clear()
