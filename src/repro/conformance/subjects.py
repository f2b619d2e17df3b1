"""The subject universe: which plugins and stacks the matrix verifies.

A *subject* pairs a registered compressor id with the options that make
its guarantees concrete (which bound mode, which inner plugin for a
meta-compressor stack) plus the oracle that judges each guarantee.
Subjects are built from the live registry via capability introspection
(:meth:`repro.core.registry.Registry.capabilities`), so third-party
plugins registered at runtime are swept in automatically: a lossless
plugin gets the bit-exact battery, a lossy one without a known bound
spec still gets the shape-contract and sequence batteries (its bound
cells are SKIP, visibly, never silently).
"""

from __future__ import annotations

import dataclasses

from ..core.compressor import PressioCompressor
from ..core.registry import compressor_registry

__all__ = ["BoundSpec", "Subject", "build_subjects", "SMOKE_SUBJECTS"]


@dataclasses.dataclass(frozen=True)
class BoundSpec:
    """One advertised guarantee: options that request it + its oracle.

    ``mode`` selects the oracle: ``abs`` (pointwise absolute), ``rel``
    (value-range relative), ``pw_rel`` (pointwise relative — strictly
    positive fields only), ``rel_l2`` (relative Frobenius norm).
    """

    mode: str
    options: tuple[tuple[str, object], ...]
    bound: float

    def options_dict(self) -> dict:
        return dict(self.options)


@dataclasses.dataclass(frozen=True)
class Subject:
    """A verification target: plugin id + configuration + guarantees."""

    id: str
    plugin_id: str
    base_options: tuple[tuple[str, object], ...] = ()
    bounds: tuple[BoundSpec, ...] = ()
    lossless: bool = False
    #: True when the subject is itself a meta-compressor stack — the
    #: differential battery then skips re-stacking it
    stack: bool = False
    #: option name -> candidate values for the API-sequence engine
    seq_pool: tuple[tuple[str, tuple], ...] = ()

    def create(self) -> PressioCompressor:
        comp = compressor_registry.create(self.plugin_id)
        opts = dict(self.base_options)
        if opts and comp.set_options(opts) != 0:
            raise RuntimeError(
                f"subject {self.id}: set_options failed: {comp.error_msg()}")
        return comp


def _opts(**kw) -> tuple[tuple[str, object], ...]:
    return tuple(kw.items())


def _sz_subject(plugin_id: str) -> Subject:
    return Subject(
        id=plugin_id,
        plugin_id=plugin_id,
        bounds=(
            BoundSpec("abs", _opts(**{"pressio:abs": 1e-4}), 1e-4),
            BoundSpec("rel", _opts(**{"sz:error_bound_mode_str": "rel",
                                      "sz:rel_err_bound": 1e-4}), 1e-4),
            BoundSpec("pw_rel",
                      _opts(**{"sz:error_bound_mode_str": "pw_rel",
                               "sz:pw_rel_err_bound": 1e-3}), 1e-3),
        ),
        seq_pool=(("pressio:abs", (1e-3, 1e-4, 1e-5)),
                  ("sz:sz_mode", (0, 1))),
    )


_LOSSLESS_IDS = ("noop", "zlib", "zlib-fast", "zlib-best", "bz2", "lzma",
                 "rle", "pressio-lz", "huffman-bytes", "fpzip")

_EXPLICIT: dict[str, Subject] = {}
for _pid in ("sz", "sz_threadsafe", "sz_omp"):
    _EXPLICIT[_pid] = _sz_subject(_pid)
_EXPLICIT["zfp"] = Subject(
    id="zfp", plugin_id="zfp",
    bounds=(BoundSpec("abs", _opts(**{"zfp:accuracy": 1e-4}), 1e-4),),
    seq_pool=(("zfp:accuracy", (1e-3, 1e-4, 1e-5)),),
)
_EXPLICIT["mgard"] = Subject(
    id="mgard", plugin_id="mgard",
    bounds=(BoundSpec("abs", _opts(**{"pressio:abs": 1e-4}), 1e-4),),
    seq_pool=(("mgard:tolerance", (1e-3, 1e-4, 1e-5)),),
)
_EXPLICIT["tthresh"] = Subject(
    id="tthresh", plugin_id="tthresh",
    bounds=(BoundSpec("rel_l2",
                      _opts(**{"tthresh:target_value": 1e-3}), 1e-3),),
    seq_pool=(("tthresh:target_value", (1e-2, 1e-3, 1e-4)),),
)
# precision trimmers guarantee a pointwise relative error of one ulp at
# the kept precision: 2^-nsb / 2^-ceil(digits*log2(10))
_EXPLICIT["bit_grooming"] = Subject(
    id="bit_grooming", plugin_id="bit_grooming",
    bounds=(BoundSpec("pw_rel", _opts(**{"bit_grooming:nsb": 12}),
                      2.0 ** -12),),
    seq_pool=(("bit_grooming:nsb", (8, 12, 16)),),
)
_EXPLICIT["digit_rounding"] = Subject(
    id="digit_rounding", plugin_id="digit_rounding",
    bounds=(BoundSpec("pw_rel", _opts(**{"digit_rounding:prec": 4}),
                      2.0 ** -14),),
    seq_pool=(("digit_rounding:prec", (3, 4, 6)),),
)
for _pid in _LOSSLESS_IDS:
    _EXPLICIT[_pid] = Subject(id=_pid, plugin_id=_pid, lossless=True)

#: representative meta-compressor stacks — the configurations Section V
#: shows can silently change semantics (chunk boundaries, axis order)
_STACKS = (
    Subject(id="chunking(zlib)", plugin_id="chunking", stack=True,
            base_options=_opts(**{"chunking:compressor": "zlib",
                                  "chunking:chunk_size": 512}),
            lossless=True),
    Subject(id="chunking(sz)", plugin_id="chunking", stack=True,
            base_options=_opts(**{"chunking:compressor": "sz",
                                  "chunking:chunk_size": 512}),
            bounds=(BoundSpec("abs", _opts(**{"pressio:abs": 1e-4}),
                              1e-4),),
            seq_pool=(("pressio:abs", (1e-3, 1e-4)),)),
    Subject(id="transpose(zfp)", plugin_id="transpose", stack=True,
            base_options=_opts(**{"transpose:compressor": "zfp"}),
            bounds=(BoundSpec("abs", _opts(**{"zfp:accuracy": 1e-4}),
                              1e-4),),
            seq_pool=(("zfp:accuracy", (1e-3, 1e-4)),)),
    Subject(id="transpose(sz)", plugin_id="transpose", stack=True,
            base_options=_opts(**{"transpose:compressor": "sz"}),
            bounds=(BoundSpec("abs", _opts(**{"pressio:abs": 1e-4}),
                              1e-4),)),
    # delta coding of floats restores via cumsum, which accumulates
    # roundoff — exact only for integers, so no lossless claim here;
    # the shape/sequence batteries still apply
    Subject(id="delta_encoding(zlib)", plugin_id="delta_encoding",
            stack=True,
            base_options=_opts(**{"delta_encoding:compressor": "zlib"})),
    Subject(id="linear_quantizer(zlib)", plugin_id="linear_quantizer",
            stack=True,
            base_options=_opts(**{"linear_quantizer:compressor": "zlib",
                                  "linear_quantizer:step": 1e-4}),
            # a uniform quantizer with step s guarantees s/2
            bounds=(BoundSpec("abs", (), 5e-5),),
            seq_pool=(("linear_quantizer:step", (1e-3, 1e-4)),)),
    Subject(id="sparse(zfp)", plugin_id="sparse", stack=True,
            base_options=_opts(**{"sparse:compressor": "zfp"}),
            bounds=(BoundSpec("abs", _opts(**{"zfp:accuracy": 1e-5}),
                              1e-5),)),
)

#: plugins the matrix deliberately leaves out, with the reasons shown in
#: every report
_META_SHELL = ("meta-compressor shell; its contract depends on the inner "
               "plugin — verified via the explicit stack subjects")

_EXCLUDED: dict[str, str] = {
    "chunking": _META_SHELL,
    "transpose": _META_SHELL,
    "delta_encoding": _META_SHELL,
    "linear_quantizer": _META_SHELL,
    "sparse": _META_SHELL,
    "external": "out-of-process plugin; needs an external binary the "
                "matrix cannot assume",
    "opt": "search meta-compressor; needs an objective configuration, "
           "covered by tests/meta",
    "switch": "dispatch meta-compressor; verified through its arms",
    "sample": "decimating by design — round-trip identity does not apply",
    "resize": "reshapes by design — round-trip identity does not apply",
    "fault_injector": "deliberately corrupts streams (fuzzer harness)",
    "error_injector": "deliberately perturbs values (fuzzer harness)",
    "many_independent": "list-API meta; exercised by tests/meta, not the "
                        "scalar matrix",
    "many_dependent": "list-API meta; exercised by tests/meta, not the "
                      "scalar matrix",
}

#: fast per-PR subset: one of each family (prediction, transform,
#: trimming, lossless, stack)
SMOKE_SUBJECTS = ("sz", "zfp", "zlib", "noop", "bit_grooming",
                  "chunking(sz)")


def build_subjects(smoke: bool = False,
                   include: list[str] | None = None
                   ) -> tuple[list[Subject], list[tuple[str, str]]]:
    """Build the subject list from the live registry.

    Returns ``(subjects, excluded)`` where ``excluded`` carries
    (subject id, reason) pairs for everything intentionally left out.
    ``include`` restricts to the named subject ids (exact match against
    either the subject id or its plugin id).
    """
    caps = compressor_registry.capabilities()
    subjects: list[Subject] = []
    excluded: list[tuple[str, str]] = []
    for plugin_id in sorted(caps):
        if plugin_id in _EXCLUDED:
            excluded.append((plugin_id, _EXCLUDED[plugin_id]))
            continue
        spec = _EXPLICIT.get(plugin_id)
        if spec is not None:
            subjects.append(spec)
            continue
        # unknown (third-party) plugin: classify from its configuration
        info = caps[plugin_id]
        if info.get("error"):
            excluded.append((plugin_id,
                             f"capability introspection failed: "
                             f"{info['error']}"))
            continue
        lossless = info.get("pressio:lossy") is False
        subjects.append(Subject(id=plugin_id, plugin_id=plugin_id,
                                lossless=lossless))
    subjects.extend(_STACKS)
    if smoke:
        subjects = [s for s in subjects if s.id in SMOKE_SUBJECTS]
    if include:
        wanted = set(include)
        subjects = [s for s in subjects
                    if s.id in wanted or s.plugin_id in wanted]
        if not subjects:
            raise KeyError(f"no conformance subjects match {include!r}")
    return subjects, excluded
