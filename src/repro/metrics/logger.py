"""The ``csv_logger`` metrics plugin: append results to a CSV file.

Experiment harnesses (the zchecker, the distributed experiment, batch
sweeps) want a durable record of every operation.  This plugin wraps a
set of child metrics and, after each round trip, appends one CSV row of
their results to ``csv_logger:path`` — the experiment-logging pattern
libpressio serves with its ``csv`` printer metric.

Columns are the union of the child metrics' result keys, fixed at the
first write (a header line is emitted); later rows leave missing
entries blank.

``csv_logger:mode`` selects when rows are appended:

* ``roundtrip`` (default) — one row per compress(+decompress) pair.  A
  compress with no following decompress (compress-only sweeps) is
  flushed when the next operation begins, when results are read, on an
  explicit :meth:`flush`, or — for scripts that compress and simply
  exit — by an ``atexit`` hook, so buffered rows are never lost;
* ``per_operation`` — one row after *every* operation, with an
  ``operation`` column distinguishing compress from decompress rows.
"""

from __future__ import annotations

import atexit
import csv
import os
import weakref

from ..core.configurable import Field
from ..core.data import PressioData
from ..core.metrics import PressioMetrics
from ..core.options import OptionType, PressioOptions
from ..core.registry import metric_plugin, metrics_registry
from ..core.status import InvalidOptionError
from ..obs import runtime as _obs

__all__ = ["CsvLoggerMetrics"]

#: Live logger instances, flushed at interpreter exit so a sweep that
#: compresses and simply exits (never reading results or decompressing)
#: still gets its final row.  A WeakSet so registration does not keep
#: finished loggers alive.
_LIVE_LOGGERS: "weakref.WeakSet[CsvLoggerMetrics]" = weakref.WeakSet()


@atexit.register
def _flush_live_loggers() -> None:
    for logger in list(_LIVE_LOGGERS):
        try:
            logger.flush()
        except Exception as e:  # noqa: BLE001 - never block interpreter exit
            _obs.record_error("atexit_flush", "csv_logger", e)


@metric_plugin("csv_logger")
class CsvLoggerMetrics(PressioMetrics):
    """Log child-metric results to a CSV file, one row per round trip."""

    fields = (
        Field("csv_logger:path", "_path", OptionType.STRING),
        Field("csv_logger:mode", "_mode", OptionType.STRING,
              choices=("roundtrip", "per_operation")),
        Field("csv_logger:metrics", "_child_ids", OptionType.STRING_LIST),
    )

    def __init__(self) -> None:
        super().__init__()
        self._path = ""
        self._mode = "roundtrip"
        self._child_ids = ["size", "time", "error_stat"]
        self._children = [metrics_registry.create(mid)
                          for mid in self._child_ids]
        self._columns: list[str] | None = None
        self._row_count = 0
        self._pending = False  # a compress happened; its row is unwritten
        _LIVE_LOGGERS.add(self)

    # -- options ----------------------------------------------------------
    def _set_options(self, options: PressioOptions) -> None:
        # naming other child metrics creates them
        ids = options.get("csv_logger:metrics")
        if ids is not None and list(ids) != self._child_ids:
            self._children = [metrics_registry.create(mid) for mid in ids]
            self._columns = None
        super()._set_options(options)

    # -- hook fan-out --------------------------------------------------------
    def begin_compress(self, input: PressioData) -> None:
        # a pending compress-only row means the previous compress never
        # saw a decompress: flush it before the children start over
        self.flush()
        for child in self._children:
            child.begin_compress(input)

    def end_compress(self, input: PressioData, output: PressioData) -> None:
        for child in self._children:
            child.end_compress(input, output)
        if self._mode == "per_operation":
            self._append_row(operation="compress")
        else:
            self._pending = True

    def begin_decompress(self, input: PressioData) -> None:
        for child in self._children:
            child.begin_decompress(input)

    def end_decompress(self, input: PressioData, output: PressioData) -> None:
        for child in self._children:
            child.end_decompress(input, output)
        if self._mode == "per_operation":
            self._append_row(operation="decompress")
        else:
            self._pending = False
            self._append_row()

    def flush(self) -> None:
        """Write any pending compress-only row (roundtrip mode)."""
        if self._pending:
            self._pending = False
            self._append_row()

    # -- logging ----------------------------------------------------------
    def _gather(self) -> dict:
        merged = PressioOptions()
        for child in self._children:
            merged = merged.merge(child.get_metrics_results())
        return {k: v for k, v in merged.to_dict().items()
                if isinstance(v, (int, float, str, bool))}

    def _append_row(self, operation: str | None = None) -> None:
        if not self._path:
            raise InvalidOptionError("csv_logger:path is not set")
        row = self._gather()
        if operation is not None:
            row["operation"] = operation
        new_file = not os.path.exists(self._path) or self._columns is None
        if self._columns is None:
            if os.path.exists(self._path):
                with open(self._path, newline="") as fh:
                    header = next(csv.reader(fh), None)
                self._columns = header or sorted(row)
                new_file = header is None
            else:
                self._columns = sorted(row)
        with open(self._path, "a", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=self._columns,
                                    extrasaction="ignore")
            if new_file:
                writer.writeheader()
            writer.writerow(row)
        self._row_count += 1

    def get_metrics_results(self) -> PressioOptions:
        if self._path:
            self.flush()  # make compress-only workflows durable
        results = PressioOptions()
        results.set("csv_logger:rows_written", self._row_count)
        results.set("csv_logger:path", self._path)
        merged = PressioOptions()
        for child in self._children:
            merged = merged.merge(child.get_metrics_results())
        return merged.merge(results)

    def reset(self) -> None:
        for child in self._children:
            child.reset()
        self._row_count = 0
        self._columns = None
        self._pending = False
