"""Seeded-violation self-test: prove the harness catches real cheats.

A verification matrix that has never seen a failure proves nothing —
maybe everything conforms, maybe the oracles are vacuous.  The
self-test plants three known violations and demands the *regular*
batteries (no special-cased code paths) flag every one:

* ``selftest_bound_cheat`` — advertises ``pressio:abs`` but quantizes
  with a step of ``6*eb``, delivering up to triple the promised error;
* ``selftest_leaky_clone`` — ``clone()`` shares mutable state with the
  original (the classic global-native-context bug), so cloning and
  clone mutation visibly change the original's output;
* a **header bit-flip** in a freshly generated golden corpus — one bit
  in the CHK1 archive, which byte-stability checking must refuse.

``run_self_test`` returns the report plus a per-violation detection
map; the CLI exits 1 when all are detected (violations present, as
planted) and 3 when any slips through (a harness bug, the worse news).
"""

from __future__ import annotations

import tempfile

import numpy as np

from ..core.compressor import PressioCompressor
from ..core.configurable import Field, Stability
from ..core.data import PressioData
from ..core.options import OptionType, PressioOptions
from ..core.registry import compressor_registry
from ..encoders.headers import read_header, write_header
from .battery import BoundOracleBattery, RunContext, SequenceBattery
from .golden import verify_corpus, write_corpus
from .report import FAIL, ConformanceReport
from .subjects import BoundSpec, Subject

__all__ = ["run_self_test", "SELF_TEST_VIOLATIONS"]

_MAGIC = b"STV1"

SELF_TEST_VIOLATIONS = ("bound_cheat", "leaky_clone", "golden_bitflip")


class _BoundCheat(PressioCompressor):
    """Advertises ``pressio:abs`` then delivers 3x the promised error."""

    thread_safety = "multithreaded"
    fields = (Field("pressio:abs", "_abs", OptionType.DOUBLE),)

    def __init__(self):
        super().__init__()
        self._abs = 1e-4

    def _configuration(self) -> PressioOptions:
        cfg = PressioOptions()
        cfg.set("pressio:stability", Stability.EXPERIMENTAL)
        cfg.set("pressio:lossy", True)
        return cfg

    def version(self) -> str:
        return "0.0.1.selftest"

    def _compress(self, input: PressioData) -> PressioData:
        arr = np.asarray(input.to_numpy(), dtype=np.float64)
        step = 6.0 * self._abs  # the cheat: honest would be 2*abs
        recon = np.round(arr / step) * step
        header = write_header(_MAGIC, input.dtype, input.dims,
                              doubles=(step,))
        return PressioData.from_bytes(
            header + recon.astype(np.float64).tobytes())

    def _decompress(self, input: PressioData,
                    output: PressioData) -> PressioData:
        stream = input.to_bytes()
        dtype, dims, _d, _i, pos = read_header(stream, _MAGIC)
        arr = np.frombuffer(stream, dtype=np.float64, offset=pos)
        from ..core.dtype import dtype_to_numpy
        return PressioData.from_numpy(
            arr.reshape(dims).astype(dtype_to_numpy(dtype)), copy=True)


class _LeakyClone(PressioCompressor):
    """``clone()`` shares (and bumps) mutable state with the original."""

    thread_safety = "single"

    def __init__(self, shared: dict | None = None):
        super().__init__()
        # the bug under test: clones receive a reference, not a copy
        self._shared = shared if shared is not None \
            else {"step": 5e-4, "generation": 0}

    def _configuration(self) -> PressioOptions:
        cfg = PressioOptions()
        cfg.set("pressio:stability", Stability.EXPERIMENTAL)
        cfg.set("pressio:lossy", True)
        return cfg

    def _options(self) -> PressioOptions:
        opts = PressioOptions()
        opts.set("selftest_leaky:step", float(self._shared["step"]))
        return opts

    def _set_options(self, options: PressioOptions) -> None:
        self._shared["step"] = float(
            self._take(options, "selftest_leaky:step", OptionType.DOUBLE,
                       self._shared["step"]))

    def version(self) -> str:
        return "0.0.1.selftest"

    def clone(self) -> "_LeakyClone":
        self._shared["generation"] += 1
        return _LeakyClone(self._shared)

    def _compress(self, input: PressioData) -> PressioData:
        arr = np.asarray(input.to_numpy(), dtype=np.float64)
        step = self._shared["step"]
        recon = np.round(arr / step) * step
        # the generation counter leaks into the stream, so any clone
        # visibly perturbs the original's subsequent output
        header = write_header(_MAGIC, input.dtype, input.dims,
                              doubles=(step,),
                              ints=(self._shared["generation"],))
        return PressioData.from_bytes(
            header + recon.astype(np.float64).tobytes())

    def _decompress(self, input: PressioData,
                    output: PressioData) -> PressioData:
        stream = input.to_bytes()
        dtype, dims, _d, _i, pos = read_header(stream, _MAGIC)
        from ..core.dtype import dtype_to_numpy
        arr = np.frombuffer(stream, dtype=np.float64, offset=pos)
        return PressioData.from_numpy(
            arr.reshape(dims).astype(dtype_to_numpy(dtype)), copy=True)


_CHEAT_SUBJECT = Subject(
    id="selftest_bound_cheat", plugin_id="selftest_bound_cheat",
    bounds=(BoundSpec("abs", (("pressio:abs", 1e-4),), 1e-4),),
    seq_pool=(("pressio:abs", (1e-3, 1e-4)),),
)

_LEAKY_SUBJECT = Subject(
    id="selftest_leaky_clone", plugin_id="selftest_leaky_clone",
    seq_pool=(("selftest_leaky:step", (1e-3, 2e-3, 4e-3)),),
)


def run_self_test(seed: int = 20210429
                  ) -> tuple[ConformanceReport, dict[str, bool]]:
    """Plant the violations, run the regular batteries, report detection."""
    report = ConformanceReport(seed=seed, mode="self-test")
    ctx = RunContext(seed=seed, smoke=True)
    compressor_registry.register("selftest_bound_cheat", _BoundCheat,
                                 replace=True)
    compressor_registry.register("selftest_leaky_clone", _LeakyClone,
                                 replace=True)
    try:
        report.extend(BoundOracleBattery().run(_CHEAT_SUBJECT, ctx))
        report.extend(SequenceBattery().run(_LEAKY_SUBJECT, ctx))
        with tempfile.TemporaryDirectory() as tmp:
            write_corpus(tmp)
            target = f"{tmp}/chunking_chk1.bin"
            with open(target, "r+b") as fh:
                fh.seek(5)
                byte = fh.read(1)
                fh.seek(5)
                fh.write(bytes([byte[0] ^ 0x10]))  # flip one header bit
            report.extend(verify_corpus(tmp))
    finally:
        compressor_registry.unregister("selftest_bound_cheat")
        compressor_registry.unregister("selftest_leaky_clone")

    def _detected(subject: str, battery: str) -> bool:
        return any(c.verdict == FAIL for c in report.cells
                   if c.subject == subject and c.battery == battery)

    detections = {
        "bound_cheat": _detected("selftest_bound_cheat", "bounds"),
        "leaky_clone": _detected("selftest_leaky_clone", "sequence"),
        "golden_bitflip": _detected("golden:chunking_chk1", "golden"),
    }
    return report, detections
