"""Seeded PC001 violation: a plugin with a fields table whose hand-written
_set_options reads a key that neither its fields nor its _options declare.

Lint fixture — parsed by the analyzer, never imported or executed.
"""

from repro.core.compressor import PressioCompressor
from repro.core.configurable import Field
from repro.core.options import OptionType
from repro.core.registry import compressor_plugin


@compressor_plugin("fixture_pc001_fields")
class FieldDriftCompressor(PressioCompressor):
    thread_safety = "serialized"
    fields = (Field("level", "_level", OptionType.INT64, low=0),
              Field("pressio:abs", "_bound", OptionType.DOUBLE))

    def __init__(self):
        super().__init__()
        self._level = 1
        self._bound = 1e-3

    def _set_options(self, options):
        super()._set_options(options)
        # field keys, the plugin's own under its prefix: declared
        level = options.get(f"{self.prefix()}:level")
        bound = options.get("pressio:abs")
        # accepted, but no field or _options advertises it -> PC001
        self._mode = options.get("fixture_pc001_fields:mode", level or bound)
