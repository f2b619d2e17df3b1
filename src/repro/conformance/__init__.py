"""Conformance and differential verification for the plugin contract.

The paper's core claim is that one uniform interface fronts many
compressors *without changing their semantics*.  Section V measures
exactly the places where that claim is fragile — MGARD failing below 3
samples per dimension, ZFP padding small blocks, dimension order
silently costing compression ratio.  This package turns those anecdotes
into machinery: every registered compressor (and representative
meta-compressor stacks) is driven through a shared battery that

* recomputes abs / value-range-rel / pointwise-rel error bounds from the
  decompressed output (:mod:`oracles`) on SDRBench-shaped synthetic
  fields (:mod:`fields`) and fails any plugin whose advertised
  ``pressio:abs``-style guarantee is violated;
* cross-checks each plugin against the ``noop`` / lossless reference and
  against its own output under chunking / transpose / cast stacks —
  ratios may change, bounds may not (:mod:`battery`);
* asserts byte-stability of every on-disk format (``CHK1``, ``CHK2``,
  ``PSF1``, native headers) against a golden-stream corpus with a versioned
  regeneration path (:mod:`golden`);
* replays seeded, wall-clock-free randomized API sequences
  (set_options / compress / decompress / clone) to catch state leakage
  the fuzzer's data corruption cannot reach (:mod:`sequence`).

The entry point is :func:`run_matrix` (CLI: ``pressio conformance``),
which returns a per-plugin x per-battery verdict matrix.  A seeded
``--self-test`` mode plants known violations (bound-breaking rounding,
header bit-flips, state-leaking clones) and proves the harness detects
them (:mod:`selftest`).
"""

from .battery import (
    Battery,
    BoundOracleBattery,
    DifferentialBattery,
    SequenceBattery,
    ShapeContractBattery,
    default_batteries,
)
from .fields import ConformanceField, conformance_fields, get_field
from .golden import (
    GOLDEN_VERSION,
    golden_specs,
    verify_corpus,
    write_corpus,
)
from .matrix import run_matrix
from .oracles import OracleResult
from .report import PASS, FAIL, SKIP, ERROR, CellResult, ConformanceReport
from .selftest import run_self_test
from .sequence import SequenceEngine
from .subjects import Subject, build_subjects

__all__ = [
    "Battery",
    "BoundOracleBattery",
    "CellResult",
    "ConformanceField",
    "ConformanceReport",
    "DifferentialBattery",
    "ERROR",
    "FAIL",
    "GOLDEN_VERSION",
    "OracleResult",
    "PASS",
    "SKIP",
    "SequenceBattery",
    "SequenceEngine",
    "ShapeContractBattery",
    "Subject",
    "build_subjects",
    "conformance_fields",
    "default_batteries",
    "get_field",
    "golden_specs",
    "run_matrix",
    "run_self_test",
    "verify_corpus",
    "write_corpus",
]
