"""Golden-stream corpus: byte-stability of every on-disk format.

Once a stream format ships (CHK1/CHK2 chunk containers, PSF1 streaming
frames, the generic self-describing header, the pure-python codec
payloads) its bytes are a compatibility contract: archives written
today must decode forever.  The corpus pins each format twice over —

* **byte stability**: re-encoding the fixed golden input must reproduce
  the archived stream exactly (a refactor that shifts one byte is a
  format break, caught here, not by a user with a petabyte archive);
* **decodability**: the archived bytes must still decompress to the
  golden input within the producing configuration's guarantee.

The golden *input* is generated with pure arithmetic only — no FFTs, no
transcendental libm calls — because those can differ in the last ulp
across platforms and would make "golden bytes" platform-dependent.

Intentional format changes bump :data:`GOLDEN_VERSION` and regenerate
with ``pressio conformance --regen-golden``; the manifest records the
version so a stale corpus fails with a regeneration instruction instead
of a wall of byte diffs.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np

from ..core.data import PressioData
from ..core.dtype import DType
from ..core.registry import compressor_registry
from ..encoders.headers import read_header, write_header
from .report import ERROR, FAIL, PASS, CellResult

__all__ = ["GOLDEN_VERSION", "MANIFEST_NAME", "golden_field",
           "golden_specs", "write_corpus", "verify_corpus",
           "default_corpus_dir"]

# version 2: RZC2 byteplane residual streams, HUF2 block-synced Huffman
# framing, and SZ's lorenzo mode dropping the mean-offset pass (offset
# recorded as 0.0) — all intentional format changes from the
# vectorization pass; regenerated corpus committed alongside.
# version 3: encoder output only — the residual codec picks a deflate
# strategy per byte plane and, below 2048 residuals, keeps the smaller
# of RZC1 and RZC2; the decoders are unchanged and still read every
# version-2 stream.
# version 4: adds ``chunking_chk2``, the CHK2 container whose chunks are
# runs of whole leading-axis slabs handed over with their N-d dims;
# every version-3 stream, ``chunking_chk1`` included, is unchanged.
# version 5: mgard writes closed-loop ``MGD2`` streams (its decoder
# still reads ``MGD1``); the corpus holds no mgard stream, so every
# version-4 stream is unchanged.
# version 6: encoder output only, below 2048 residuals and for bz2/lzma —
# the residual codec writes RZC2 for every backend and size, and RZC1
# is decode-only; the sz and zfp streams shrink, every other stream and
# every decoder is unchanged.
GOLDEN_VERSION = 6
MANIFEST_NAME = "MANIFEST.json"

_REGEN_HINT = ("regenerate intentionally with "
               "`pressio conformance --regen-golden` and commit the result")


def golden_field() -> np.ndarray:
    """1024 doubles from pure rational arithmetic — identical everywhere.

    A low-discrepancy (Weyl) sequence scaled into [-1, 1) with a mild
    quadratic trend: enough structure for every codec to exercise its
    real paths, zero dependence on libm or FFT rounding.
    """
    n = np.arange(1024, dtype=np.float64)
    weyl = (n * 0.6180339887498949) % 1.0
    trend = (n / 1024.0 - 0.5) ** 2
    return np.ascontiguousarray(2.0 * weyl - 1.0 + 0.25 * trend)


def _roundtrip_check(plugin_id: str, options: dict, bound: float | None,
                     shape: tuple[int, ...] = (1024,)):
    """Build a decode-checker asserting the archived stream still decodes."""

    def check(stream: bytes) -> None:
        arr = golden_field().reshape(shape)
        comp = compressor_registry.create(plugin_id)
        if options and comp.set_options(dict(options)) != 0:
            raise RuntimeError(f"{plugin_id}: {comp.error_msg()}")
        out = comp.decompress(
            PressioData.from_bytes(stream),
            PressioData.empty(DType.DOUBLE, arr.shape))
        got = np.asarray(out.to_numpy())
        if got.shape != arr.shape:
            raise AssertionError(f"decoded shape {got.shape} differs from "
                                 f"golden {arr.shape}")
        if bound is None:
            if got.tobytes() != arr.tobytes():
                raise AssertionError("decoded bytes differ from golden input")
        else:
            err = float(np.max(np.abs(got - arr)))
            if err > bound * (1 + 1e-9):
                raise AssertionError(
                    f"decoded error {err:.3g} exceeds bound {bound:.3g}")

    return check


def _compressor_producer(plugin_id: str, options: dict,
                         shape: tuple[int, ...] = (1024,)):
    def produce() -> bytes:
        comp = compressor_registry.create(plugin_id)
        if options and comp.set_options(dict(options)) != 0:
            raise RuntimeError(f"{plugin_id}: {comp.error_msg()}")
        return comp.compress(PressioData.from_numpy(
            golden_field().reshape(shape))).to_bytes()

    return produce


def _header_produce() -> bytes:
    return write_header(b"GLD1", DType.DOUBLE, (3, 4, 5),
                        doubles=(0.5, -2.0), ints=(42,))


def _header_check(stream: bytes) -> None:
    dtype, dims, doubles, ints, offset = read_header(stream, b"GLD1")
    if (dtype, dims, doubles, ints) != (DType.DOUBLE, (3, 4, 5),
                                        (0.5, -2.0), (42,)):
        raise AssertionError("header fields did not round-trip")
    if offset != len(stream):
        raise AssertionError("header length drifted")


def _streaming_produce() -> bytes:
    from ..streaming import StreamingCompressor

    sc = StreamingCompressor(compressor_registry.create("noop"),
                             DType.DOUBLE, frame_elements=256)
    arr = golden_field()
    out = bytearray()
    # deliberately awkward splits so frame assembly is part of the format
    for start in (0, 100, 612):
        stop = {0: 100, 100: 612, 612: 1024}[start]
        out += sc.write(arr[start:stop])
    out += sc.finish()
    return bytes(out)


def _streaming_check(stream: bytes) -> None:
    from ..streaming import StreamingDecompressor

    sd = StreamingDecompressor(compressor_registry.create("noop"))
    frames = list(sd.iter_frames(stream, chunk_size=333))
    got = np.concatenate(frames)
    if not sd.finished:
        raise AssertionError("terminator not recognized")
    if got.tobytes() != golden_field().tobytes():
        raise AssertionError("streamed values differ from golden input")


class GoldenSpec:
    """One archived format: a producer and a decode checker."""

    def __init__(self, name: str, description: str, produce, check):
        self.name = name
        self.filename = f"{name}.bin"
        self.description = description
        self.produce = produce
        self.check = check


def golden_specs() -> tuple[GoldenSpec, ...]:
    return (
        GoldenSpec("header_v1", "generic self-describing stream header",
                   _header_produce, _header_check),
        GoldenSpec("noop_nop1", "noop NOP1 container",
                   _compressor_producer("noop", {}),
                   _roundtrip_check("noop", {}, None)),
        GoldenSpec("rle", "run-length codec stream",
                   _compressor_producer("rle", {}),
                   _roundtrip_check("rle", {}, None)),
        GoldenSpec("pressio_lz", "LZ77-family codec stream",
                   _compressor_producer("pressio-lz", {}),
                   _roundtrip_check("pressio-lz", {}, None)),
        GoldenSpec("huffman_bytes", "byte-Huffman codec stream",
                   _compressor_producer("huffman-bytes", {}),
                   _roundtrip_check("huffman-bytes", {}, None)),
        GoldenSpec("zlib", "zlib container stream",
                   _compressor_producer("zlib", {}),
                   _roundtrip_check("zlib", {}, None)),
        GoldenSpec("chunking_chk1", "CHK1 chunk container over rle",
                   _compressor_producer(
                       "chunking", {"chunking:compressor": "rle",
                                    "chunking:chunk_size": 256}),
                   _roundtrip_check(
                       "chunking", {"chunking:compressor": "rle",
                                    "chunking:chunk_size": 256}, None)),
        GoldenSpec("chunking_chk2",
                   "CHK2 slab container over rle, a 32x32 view",
                   _compressor_producer(
                       "chunking", {"chunking:compressor": "rle",
                                    "chunking:chunk_size": 256}, (32, 32)),
                   _roundtrip_check(
                       "chunking", {"chunking:compressor": "rle",
                                    "chunking:chunk_size": 256}, None,
                       (32, 32))),
        GoldenSpec("streaming_psf1", "PSF1 streaming frames over noop",
                   _streaming_produce, _streaming_check),
        GoldenSpec("sz_abs_1e4", "sz stream at pressio:abs=1e-4",
                   _compressor_producer("sz", {"pressio:abs": 1e-4}),
                   _roundtrip_check("sz", {}, 1e-4)),
        GoldenSpec("zfp_acc_1e4", "zfp stream at zfp:accuracy=1e-4",
                   _compressor_producer("zfp", {"zfp:accuracy": 1e-4}),
                   _roundtrip_check("zfp", {}, 1e-4)),
    )


def default_corpus_dir() -> pathlib.Path | None:
    """Locate the committed ``tests/golden`` corpus, if present."""
    here = pathlib.Path(__file__).resolve()
    for parent in here.parents:
        candidate = parent / "tests" / "golden"
        if (candidate / MANIFEST_NAME).is_file():
            return candidate
    return None


def write_corpus(directory) -> dict:
    """(Re)generate every golden stream plus the manifest; returns it."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"version": GOLDEN_VERSION,
                      "generator": "pressio conformance --regen-golden",
                      "files": {}}
    for spec in golden_specs():
        payload = spec.produce()
        (directory / spec.filename).write_bytes(payload)
        manifest["files"][spec.name] = {
            "file": spec.filename,
            "description": spec.description,
            "sha256": hashlib.sha256(payload).hexdigest(),
            "bytes": len(payload),
        }
    (directory / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def verify_corpus(directory) -> list[CellResult]:
    """Check the whole corpus; one matrix row per archived format."""
    directory = pathlib.Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.is_file():
        return [CellResult("golden", "golden", "manifest", ERROR,
                           f"no {MANIFEST_NAME} in {directory}; "
                           f"{_REGEN_HINT}")]
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as e:
        return [CellResult("golden", "golden", "manifest", FAIL,
                           f"manifest unreadable: {e}")]
    if manifest.get("version") != GOLDEN_VERSION:
        return [CellResult(
            "golden", "golden", "manifest", FAIL,
            f"corpus version {manifest.get('version')} != code version "
            f"{GOLDEN_VERSION}; {_REGEN_HINT}")]
    cells: list[CellResult] = []
    recorded = manifest.get("files", {})
    specs = {spec.name: spec for spec in golden_specs()}
    for name in sorted(set(recorded) - set(specs)):
        cells.append(CellResult(f"golden:{name}", "golden", "stale", FAIL,
                                "manifest entry has no matching spec; "
                                + _REGEN_HINT))
    for name, spec in specs.items():
        subject = f"golden:{name}"
        entry = recorded.get(name)
        if entry is None:
            cells.append(CellResult(subject, "golden", "manifest", FAIL,
                                    f"missing from manifest; {_REGEN_HINT}"))
            continue
        path = directory / entry.get("file", spec.filename)
        if not path.is_file():
            cells.append(CellResult(subject, "golden", "manifest", FAIL,
                                    f"archived file {path.name} missing"))
            continue
        archived = path.read_bytes()
        digest = hashlib.sha256(archived).hexdigest()
        if digest != entry.get("sha256"):
            cells.append(CellResult(
                subject, "golden", "byte_stable", FAIL,
                "archived bytes do not match their manifest checksum "
                "(corpus tampered or corrupted)"))
            continue
        try:
            produced = spec.produce()
        # pressio-lint: disable=PC004
        except Exception as e:  # noqa: BLE001 - escape becomes a cell
            cells.append(CellResult(subject, "golden", "byte_stable", ERROR,
                                    f"producer raised {type(e).__name__}: "
                                    f"{e}"))
            continue
        if produced != archived:
            first = next((i for i, (x, y) in
                          enumerate(zip(produced, archived)) if x != y),
                         min(len(produced), len(archived)))
            cells.append(CellResult(
                subject, "golden", "byte_stable", FAIL,
                f"re-encoded stream differs from archive at byte {first} "
                f"({len(produced)} vs {len(archived)} bytes) — format "
                f"changed; if intentional, {_REGEN_HINT}"))
            continue
        try:
            spec.check(archived)
        # pressio-lint: disable=PC004
        except Exception as e:  # noqa: BLE001 - escape becomes a cell
            cells.append(CellResult(subject, "golden", "decodes", FAIL,
                                    f"{type(e).__name__}: {e}"))
            continue
        cells.append(CellResult(subject, "golden", "byte_stable", PASS,
                                f"{len(archived)} bytes, sha256 "
                                f"{digest[:12]}"))
    return cells
