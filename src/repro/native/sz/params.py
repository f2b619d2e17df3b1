"""The ``sz_params`` configuration struct.

Real SZ is configured through a single struct with dozens of fields (the
paper counts 27+ configuration parameters); the fields below mirror the
names in SZ 2.1's ``sz.h``.  Only a subset changes the behaviour of this
reproduction (documented per field); the rest are accepted, stored, and
round-tripped so that client code exercising the full surface — like the
Table II comparisons — is realistic.
"""

from __future__ import annotations

import dataclasses

__all__ = [
    "sz_params",
    "ABS", "REL", "ABS_AND_REL", "ABS_OR_REL", "PSNR", "PW_REL", "NORM",
    "SZ_BEST_SPEED", "SZ_BEST_COMPRESSION", "SZ_DEFAULT_COMPRESSION",
    "SZ_FLOAT", "SZ_DOUBLE", "SZ_INT8", "SZ_INT16", "SZ_INT32", "SZ_INT64",
    "SZ_UINT8", "SZ_UINT16", "SZ_UINT32", "SZ_UINT64",
    "ERROR_BOUND_MODES",
]

# error bound mode constants (values match SZ 2.1's defines)
ABS = 0
REL = 1
ABS_AND_REL = 2
ABS_OR_REL = 3
PSNR = 4
ABS_AND_PW_REL = 5
ABS_OR_PW_REL = 6
PW_REL = 10
NORM = 12

ERROR_BOUND_MODES = {
    "abs": ABS,
    "rel": REL,
    "vr_rel": REL,
    "abs_and_rel": ABS_AND_REL,
    "abs_or_rel": ABS_OR_REL,
    "psnr": PSNR,
    "pw_rel": PW_REL,
    "norm": NORM,
}

# szMode
SZ_BEST_SPEED = 0
SZ_DEFAULT_COMPRESSION = 1
SZ_BEST_COMPRESSION = 2

# data types (values match SZ 2.1's defines)
SZ_FLOAT = 0
SZ_DOUBLE = 1
SZ_UINT8 = 2
SZ_INT8 = 3
SZ_UINT16 = 4
SZ_INT16 = 5
SZ_UINT32 = 6
SZ_INT32 = 7
SZ_UINT64 = 8
SZ_INT64 = 9


@dataclasses.dataclass
class sz_params:  # noqa: N801 - mimics the C struct name
    """Global configuration store, set via ``SZ_Init``.

    Behaviour-affecting fields in this reproduction:

    * ``errorBoundMode`` — ABS / REL / ABS_AND_REL / ABS_OR_REL / PSNR /
      PW_REL / NORM;
    * ``absErrBound``, ``relBoundRatio``, ``pw_relBoundRatio``, ``psnr``,
      ``normErrBound`` — the bound for the matching mode;
    * ``szMode`` — maps to the lossless backend effort (BEST_SPEED uses
      zlib level 1, DEFAULT level 6, BEST_COMPRESSION level 9);
    * ``losslessCompressor`` — "zlib" | "bz2" | "lzma" | "none";
    * ``entropyCoder`` — "fast" (byte-plane residual codec) or "huffman";
    * ``predictionMode`` — "lorenzo" (default), "none" (quantize only),
      "regression" (SZ 2.x per-block linear regression), or "adaptive"
      (per-block choice between lorenzo and regression — the behaviour
      ``withRegression`` enables in real SZ).

    The remaining fields exist for API fidelity with sz.h.
    """

    # bound selection
    errorBoundMode: int = ABS
    absErrBound: float = 1e-4
    relBoundRatio: float = 1e-4
    pw_relBoundRatio: float = 1e-3
    psnr: float = 90.0
    normErrBound: float = 1e-4

    # pipeline behaviour
    szMode: int = SZ_BEST_SPEED
    losslessCompressor: str = "zlib"
    entropyCoder: str = "fast"
    predictionMode: str = "lorenzo"

    # when truthy, compression may use the caller's float64 buffer as
    # scratch space (the input-clobbering behaviour of some SZ versions)
    clobberInput: int = 0

    # API-fidelity fields (stored, validated, not otherwise used)
    quantization_intervals: int = 0
    max_quant_intervals: int = 65536
    sol_ID: int = 101  # SZ
    sampleDistance: int = 100
    predThreshold: float = 0.99
    gzipMode: int = 1
    pwr_type: int = 0
    segment_size: int = 36
    snapshotCmprStep: int = 5
    withRegression: int = 1
    protectValueRange: int = 0
    accelerate_pw_rel_compression: int = 1
    plus_bits: int = 3
    randomAccess: int = 0
    dataEndianType: int = 0
    sysEndianType: int = 0

    def validate(self) -> None:
        """Raise ValueError on out-of-domain settings."""
        valid_modes = {ABS, REL, ABS_AND_REL, ABS_OR_REL, PSNR, PW_REL, NORM}
        if self.errorBoundMode not in valid_modes:
            raise ValueError(f"invalid errorBoundMode {self.errorBoundMode}")
        if self.errorBoundMode == ABS and self.absErrBound <= 0:
            raise ValueError("absErrBound must be positive")
        if self.errorBoundMode == REL and self.relBoundRatio <= 0:
            raise ValueError("relBoundRatio must be positive")
        if self.errorBoundMode == PW_REL and not (0 < self.pw_relBoundRatio < 1):
            raise ValueError("pw_relBoundRatio must be in (0, 1)")
        if self.errorBoundMode == PSNR and self.psnr <= 0:
            raise ValueError("psnr must be positive")
        if self.errorBoundMode == NORM and self.normErrBound <= 0:
            raise ValueError("normErrBound must be positive")
        if self.szMode not in (SZ_BEST_SPEED, SZ_DEFAULT_COMPRESSION,
                               SZ_BEST_COMPRESSION):
            raise ValueError(f"invalid szMode {self.szMode}")
        if self.losslessCompressor not in ("zlib", "bz2", "lzma", "none"):
            raise ValueError(
                f"invalid losslessCompressor {self.losslessCompressor!r}"
            )
        if self.entropyCoder not in ("fast", "huffman"):
            raise ValueError(f"invalid entropyCoder {self.entropyCoder!r}")
        if self.predictionMode not in ("lorenzo", "none", "regression",
                                       "adaptive"):
            raise ValueError(f"invalid predictionMode {self.predictionMode!r}")

    def zlib_level(self) -> int:
        """Effort level implied by ``szMode``."""
        return {SZ_BEST_SPEED: 1, SZ_DEFAULT_COMPRESSION: 6,
                SZ_BEST_COMPRESSION: 9}[self.szMode]
