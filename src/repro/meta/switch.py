"""The ``switch`` meta-compressor: runtime compressor selection.

Holds several candidate compressors and dispatches to the one named by
``switch:active_id`` — the mechanism that lets tools like the optimizer
search *across* compressor families dynamically (paper glossary).
The compressed stream records which candidate produced it, so streams
remain decompressible after the active id changes.
"""

from __future__ import annotations

from ..core.compressor import PressioCompressor
from ..core.configurable import Field, Stability, ThreadSafety, set_each
from ..core.data import PressioData
from ..core.options import OptionType, PressioOptions
from ..core.registry import compressor_plugin, compressor_registry
from ..core.status import CorruptStreamError
from ..core.dtype import DType
from ..encoders.headers import read_header, write_header
from ..trace import runtime as _trace

__all__ = ["SwitchCompressor"]

_MAGIC = b"SWT1"


@compressor_plugin("switch")
class SwitchCompressor(PressioCompressor):
    """Dispatches to one of several registered candidates at runtime."""

    thread_safety = "serialized"
    description = "runtime switch between candidate compressors"
    # reported and documented as fields; _set_options takes them, as
    # naming a candidate creates it
    fields = (
        Field("active_id", "_active", OptionType.STRING,
              doc="candidate that handles operations"),
        Field("compressor_ids", "_candidate_ids", OptionType.STRING_LIST,
              doc="candidate plugin ids to prepare"),
    )

    def __init__(self) -> None:
        super().__init__()
        self._candidate_ids: list[str] = ["noop"]
        self._candidates: dict[str, PressioCompressor] = {
            "noop": compressor_registry.create("noop")
        }
        self._active = "noop"

    # -- candidate management -----------------------------------------------
    def _ensure(self, compressor_id: str) -> PressioCompressor:
        if compressor_id not in self._candidates:
            self._candidates[compressor_id] = compressor_registry.create(
                compressor_id
            )
            if compressor_id not in self._candidate_ids:
                self._candidate_ids.append(compressor_id)
        return self._candidates[compressor_id]

    @property
    def active(self) -> PressioCompressor:
        return self._candidates[self._active]

    # -- options ----------------------------------------------------------
    def _options(self) -> PressioOptions:
        opts = super()._options()
        for cid in self._candidate_ids:
            opts = opts.merge(self._candidates[cid].get_options())
        return opts

    def _set_options(self, options: PressioOptions) -> None:
        active = options.get(self._qualify("active_id"))
        wanted = [str(cid) for cid in
                  options.get(self._qualify("compressor_ids")) or ()]
        if active is not None:
            wanted.append(str(active))
        # new candidates join only once every candidate took the options,
        # so a rejected set leaves the candidate list as it was
        added = {cid: compressor_registry.create(cid)
                 for cid in dict.fromkeys(wanted)
                 if cid not in self._candidates}
        try:
            set_each([*self._candidates.values(), *added.values()], options)
        except BaseException:
            for new in added.values():
                new.decref()
            raise
        self._candidates.update(added)
        self._candidate_ids.extend(added)
        if active is not None:
            self._active = str(active)

    def _restore(self, before: PressioOptions) -> None:
        # _set_options undid every candidate from its own snapshot
        pass

    def _release_native(self) -> None:
        # the switch owns a reference to each of its candidates
        for comp in self._candidates.values():
            comp.decref()

    def clone(self) -> "SwitchCompressor":
        """Structural copy: each candidate is that candidate's clone.

        The merged options cannot be set back: candidates that share a
        key (``pressio:abs`` and the bounds it maps to) would all get
        the one value the merge kept.
        """
        clones: dict[str, PressioCompressor] = {}
        try:
            for cid, comp in self._candidates.items():
                clones[cid] = comp.clone()
        except BaseException:
            for comp in clones.values():
                comp.decref()
            raise
        dup = type(self)()
        if self._name is not None:
            dup.set_name(self._name)
        dup._release_native()  # drops the default noop candidate
        dup._candidates = clones
        dup._candidate_ids = list(self._candidate_ids)
        dup._active = self._active
        return dup

    def _thread_safety(self) -> str | None:
        return self.active._thread_safety()

    def _configuration(self) -> PressioOptions:
        cfg = PressioOptions()
        active_cfg = self.active.get_configuration()
        cfg.set("pressio:thread_safe",
                active_cfg.get("pressio:thread_safe",
                               ThreadSafety.SERIALIZED))
        cfg.set("pressio:stability", Stability.STABLE)
        cfg.set(self._qualify("candidates"), list(self._candidate_ids))
        return cfg

    def version(self) -> str:
        return "1.0.0.pyrepro"

    # -- compression --------------------------------------------------------
    def _compress(self, input: PressioData) -> PressioData:
        if _trace.ACTIVE is not None:
            _trace.annotate(active_id=self._active)
            _trace.add_counter(f"switch:dispatch:{self._active}")
        inner_out = self.active.compress(input)
        tag = self._active.encode("utf-8")
        header = write_header(_MAGIC, DType.BYTE, (len(tag),),
                              ints=(len(tag),))
        return PressioData.from_bytes(header + tag + inner_out.to_bytes())

    def _decompress(self, input: PressioData, output: PressioData) -> PressioData:
        stream = input.to_bytes()
        _dtype, _dims, _d, ints, pos = read_header(stream, _MAGIC)
        tag_len = ints[0]
        tag = stream[pos:pos + tag_len].decode("utf-8")
        if _trace.ACTIVE is not None:
            _trace.annotate(active_id=tag)
        candidate = self._ensure(tag)
        return candidate.decompress(
            PressioData.from_bytes(stream[pos + tag_len:]), output
        )
