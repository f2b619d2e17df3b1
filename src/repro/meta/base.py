"""Base class for meta-compressors.

A meta-compressor implements the compressor interface but delegates the
actual coding to an inner compressor plugin (paper Section IV-D).  The
inner plugin is selected by the ``<id>:compressor`` option and receives
every option set on the meta-compressor, so whole pipelines are
configured through one options object.
"""

from __future__ import annotations

from ..core.compressor import PressioCompressor
from ..core.configurable import Stability, ThreadSafety
from ..core.options import OptionType, PressioOptions
from ..core.registry import compressor_registry
from ..core.status import PressioError

__all__ = ["MetaCompressor"]


class MetaCompressor(PressioCompressor):
    """Holds and forwards to an inner compressor plugin."""

    default_inner = "noop"
    thread_safety = "serialized"

    def __init__(self) -> None:
        super().__init__()
        self._inner_id = self.default_inner
        self._inner: PressioCompressor = compressor_registry.create(
            self.default_inner
        )

    # -- inner management -------------------------------------------------
    @property
    def inner(self) -> PressioCompressor:
        return self._inner

    def set_inner(self, compressor_id: str) -> None:
        if compressor_id != self._inner_id:
            self._adopt(compressor_registry.create(compressor_id),
                        compressor_id)

    def _adopt(self, inner: PressioCompressor, compressor_id: str) -> None:
        replaced = self._inner
        self._inner = inner
        self._inner_id = compressor_id
        replaced.decref()

    def _release_native(self) -> None:
        # the meta owns its inner plugin's reference
        self._inner.decref()

    def clone(self) -> "MetaCompressor":
        """Structural copy: the inner plugin is the inner's own clone.

        Re-setting a fresh instance from the merged options would
        re-create the inner by id and hand it every key the merge kept,
        which for a ``switch`` inner is one candidate's value of a
        shared key.  Only the meta-compressor's own options are set.
        """
        dup = type(self)()
        if self._name is not None:
            dup.set_name(self._name)
        dup._adopt(self._inner.clone(), self._inner_id)
        if dup.set_options(self._meta_options()) != 0:
            dup._discard()
            raise PressioError(f"clone failed: {dup.status.msg}",
                               dup.status.code)
        return dup

    def _option_key(self) -> str:
        return f"{self.prefix()}:compressor"

    # -- options -----------------------------------------------------------
    def _meta_options(self) -> PressioOptions:
        """Additional options of the concrete meta-compressor."""
        return PressioOptions()

    def _set_meta_options(self, options: PressioOptions) -> None:
        """Apply the concrete meta-compressor's own options."""

    def _options(self) -> PressioOptions:
        opts = PressioOptions()
        opts.set(self._option_key(), self._inner_id)
        opts = opts.merge(self._meta_options())
        return opts.merge(self._inner.get_options())

    def _set_options(self, options: PressioOptions) -> None:
        # a new inner plugin replaces the old one only once it accepted
        # the options; the inner's own set is all-or-nothing
        inner_id = options.get(self._option_key())
        inner = self._inner
        if inner_id is not None and str(inner_id) != self._inner_id:
            inner = compressor_registry.create(str(inner_id))
        try:
            self._set_meta_options(options)
            if inner.set_options(options) != 0:
                raise PressioError(inner.error_msg(), inner.error_code())
        except BaseException:
            if inner is not self._inner:
                inner.decref()
            raise
        if inner is not self._inner:
            self._adopt(inner, str(inner_id))

    def _restore(self, before: PressioOptions) -> None:
        # the inner plugin undid itself in _set_options; only the
        # meta-compressor's own options are left to undo
        self._set_meta_options(before)

    def _configuration(self) -> PressioOptions:
        cfg = PressioOptions()
        inner_cfg = self._inner.get_configuration()
        # the value of a leaf that declares no thread_safety
        cfg.set("pressio:thread_safe",
                inner_cfg.get("pressio:thread_safe", ThreadSafety.SERIALIZED))
        cfg.set("pressio:stability", Stability.STABLE)
        cfg.set("pressio:lossy", inner_cfg.get("pressio:lossy", True))
        cfg.set(f"{self.prefix()}:meta", True)
        return cfg

    def _thread_safety(self) -> str | None:
        # a pipeline is only as thread-safe as its leaf
        return self._inner._thread_safety()

    def set_metrics(self, metrics) -> None:
        super().set_metrics(metrics)

    def version(self) -> str:
        return "1.0.0.pyrepro"
