"""``adios_mini``: a from-scratch step-based IO framework with operators.

Substitutes for ADIOS2 (see DESIGN.md): variables are declared against
an :class:`AdiosMiniIOSystem`, written step by step through an engine,
and may carry an *operator* — a compressor plugin applied per step.
This reproduces the integration shape of the paper's ADIOS2 row in
Table II: the operator hook accepts *any* registered compressor.

On disk, each step is one hdf5mini container ``<name>.step<k>.h5m``
inside a directory, plus a JSON manifest — structurally similar to
ADIOS2's BP directory format.
"""

from __future__ import annotations

import json
import os

import numpy as np

from ..core.configurable import Field
from ..core.data import PressioData
from ..core.dtype import dtype_from_numpy
from ..core.io import PressioIO
from ..core.options import OptionType, PressioOptions
from ..core.registry import io_plugin
from ..core.status import IOError_
from .hdf5mini import Hdf5MiniFile
from .posix import _PathIO

__all__ = ["AdiosMiniIOSystem", "AdiosVariable", "AdiosEngine", "AdiosMiniIO"]


class AdiosVariable:
    """A declared variable: name, dtype, shape, optional operator."""

    def __init__(self, name: str, dtype, shape: tuple[int, ...]):
        self.name = name
        self.dtype = np.dtype(dtype)
        self.shape = tuple(int(s) for s in shape)
        self.operator_id = ""
        self.operator_options: dict = {}

    def add_operation(self, compressor_id: str, options: dict | None = None) -> None:
        """Attach a compression operator (any registered plugin id)."""
        self.operator_id = compressor_id
        self.operator_options = dict(options or {})


class AdiosEngine:
    """A step-based writer/reader over a directory of step files."""

    def __init__(self, system: "AdiosMiniIOSystem", path: str, mode: str):
        self.system = system
        self.path = path
        self.mode = mode
        self.step = -1
        self._pending: dict[str, np.ndarray] = {}
        if mode == "w":
            os.makedirs(path, exist_ok=True)
            self._manifest = {"steps": 0, "variables": {}}
        else:
            manifest_path = os.path.join(path, "manifest.json")
            if not os.path.exists(manifest_path):
                raise IOError_(f"no adios_mini dataset at {path}")
            with open(manifest_path) as fh:
                self._manifest = json.load(fh)

    # -- write side --------------------------------------------------------
    def begin_step(self) -> int:
        self.step += 1
        self._pending.clear()
        return self.step

    def put(self, variable: AdiosVariable, array: np.ndarray) -> None:
        arr = np.ascontiguousarray(array, dtype=variable.dtype)
        if arr.shape != variable.shape:
            raise IOError_(
                f"variable {variable.name!r} expects {variable.shape}, "
                f"got {arr.shape}"
            )
        self._pending[variable.name] = arr

    def end_step(self) -> None:
        step_file = os.path.join(self.path, f"step{self.step}.h5m")
        with Hdf5MiniFile(step_file, "w") as f:
            for name, arr in self._pending.items():
                var = self.system.variables[name]
                f.create_dataset(name, arr, filter=var.operator_id,
                                 filter_options=var.operator_options or None)
        self._manifest["steps"] = self.step + 1
        for name in self._pending:
            var = self.system.variables[name]
            self._manifest["variables"][name] = {
                "dtype": var.dtype.name,
                "shape": list(var.shape),
                "operator": var.operator_id,
            }
        self._pending.clear()

    # -- read side -----------------------------------------------------------
    def steps(self) -> int:
        return int(self._manifest.get("steps", 0))

    def get(self, name: str, step: int) -> np.ndarray:
        step_file = os.path.join(self.path, f"step{step}.h5m")
        return Hdf5MiniFile(step_file, "r").read_dataset(name)

    def close(self) -> None:
        if self.mode == "w":
            with open(os.path.join(self.path, "manifest.json"), "w") as fh:
                json.dump(self._manifest, fh)

    def __enter__(self) -> "AdiosEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class AdiosMiniIOSystem:
    """Top-level handle: declare variables, open engines (ADIOS2's `IO`)."""

    def __init__(self) -> None:
        self.variables: dict[str, AdiosVariable] = {}

    def define_variable(self, name: str, dtype, shape) -> AdiosVariable:
        var = AdiosVariable(name, dtype, tuple(shape))
        self.variables[name] = var
        return var

    def inquire_variable(self, name: str) -> AdiosVariable | None:
        return self.variables.get(name)

    def open(self, path: str, mode: str) -> AdiosEngine:
        if mode not in ("r", "w"):
            raise ValueError(f"mode must be r or w, got {mode!r}")
        return AdiosEngine(self, path, mode)


@io_plugin("adios_mini")
class AdiosMiniIO(_PathIO):
    """IO plugin reading/writing one variable at one step.

    Options: ``io:path`` (dataset directory), ``adios:variable``,
    ``adios:step``, plus write-side ``adios:operator`` and
    ``adios:operator_config_json``.
    """

    fields = _PathIO.fields + (
        Field("adios:variable", "_variable", OptionType.STRING),
        Field("adios:step", "_step", OptionType.INT64),
        Field("adios:operator", "_operator", OptionType.STRING),
        Field("adios:operator_config_json", "_operator_config",
              OptionType.STRING),
    )

    def __init__(self) -> None:
        super().__init__()
        self._variable = "data"
        self._step = 0
        self._operator = ""
        self._operator_config = "{}"

    def _set_options(self, options: PressioOptions) -> None:
        super()._set_options(options)
        json.loads(self._operator_config)

    def read(self, template: PressioData | None = None) -> PressioData:
        system = AdiosMiniIOSystem()
        engine = system.open(self._require_path(), "r")
        arr = engine.get(self._variable, self._step)
        return PressioData.from_numpy(arr, copy=False)

    def write(self, data: PressioData) -> None:
        arr = np.asarray(data.to_numpy())
        system = AdiosMiniIOSystem()
        var = system.define_variable(self._variable, arr.dtype, arr.shape)
        if self._operator:
            var.add_operation(self._operator,
                              json.loads(self._operator_config) or None)
        with system.open(self._require_path(), "w") as engine:
            for _ in range(self._step + 1):
                engine.begin_step()
            engine.put(var, arr)
            engine.end_step()
