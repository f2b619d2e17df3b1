"""Shared option machinery for compressors, metrics, and IO plugins.

Every plugin kind in LibPressio exposes the same four verbs —
``get_options`` / ``set_options`` / ``check_options`` /
``get_configuration`` — plus documentation.  This module implements them
once.  ``get_configuration`` carries *read-only* facts such as thread
safety and API stability, the introspection data Table I credits
LibPressio with and faults string-typed interfaces for lacking.
"""

from __future__ import annotations

from typing import Any

from .options import CastLevel, Option, OptionType, PressioOptions
from .status import InvalidOptionError, Status

__all__ = ["Configurable", "ThreadSafety", "Stability"]


class ThreadSafety:
    """Values for the ``pressio:thread_safe`` configuration entry."""

    SINGLE = "single"          # one thread total (global state: sz-style)
    SERIALIZED = "serialized"  # many threads, externally serialized
    MULTIPLE = "multiple"      # fully re-entrant (zfp-style)


class Stability:
    """Values for the ``pressio:stability`` configuration entry."""

    EXPERIMENTAL = "experimental"
    UNSTABLE = "unstable"
    STABLE = "stable"
    EXTERNAL = "external"


class Configurable:
    """Base class implementing the uniform options protocol."""

    #: plugin id within its registry, e.g. ``"sz"``; set by subclasses
    plugin_id: str = "unknown"

    #: plugin kind prefix used in fully-qualified names ("compressor", ...)
    plugin_kind: str = "configurable"

    def __init__(self) -> None:
        self.status = Status()
        self._name: str | None = None

    # ------------------------------------------------------------------
    # naming: allows two instances of the same plugin to have distinct
    # option namespaces, as libpressio's set_name does
    # ------------------------------------------------------------------
    def get_name(self) -> str:
        return self._name if self._name is not None else self.plugin_id

    def set_name(self, name: str) -> None:
        self._name = name

    def prefix(self) -> str:
        return self.get_name()

    def _qualify(self, key: str) -> str:
        return f"{self.prefix()}:{key}"

    # ------------------------------------------------------------------
    # subclass extension points
    # ------------------------------------------------------------------
    def _options(self) -> PressioOptions:
        """Return the plugin's current options (qualified names)."""
        return PressioOptions()

    def _set_options(self, options: PressioOptions) -> None:
        """Apply recognized entries of ``options``; ignore foreign keys."""

    def _configuration(self) -> PressioOptions:
        """Read-only facts: thread safety, stability, version, ..."""
        cfg = PressioOptions()
        cfg.set("pressio:thread_safe", ThreadSafety.SERIALIZED)
        cfg.set("pressio:stability", Stability.STABLE)
        return cfg

    def _documentation(self) -> PressioOptions:
        """Human-readable descriptions of each option."""
        return PressioOptions()

    def _check_options(self, options: PressioOptions) -> None:
        """Raise InvalidOptionError when a proposed setting is unusable."""

    # ------------------------------------------------------------------
    # public uniform API
    # ------------------------------------------------------------------
    def get_options(self) -> PressioOptions:
        """Current option values, with types, for introspection."""
        return self._options()

    def set_options(self, options: PressioOptions | dict) -> int:
        """Apply option values; returns 0 on success (C API parity).

        Unknown keys are ignored (so one options set can configure a whole
        pipeline of plugins), but keys *belonging to this plugin* with
        incompatible types raise/return an error.
        """
        options = _as_options(options)
        self.status.clear()
        try:
            self._validate_known_types(options)
            self._set_options(options)
        except Exception as e:  # noqa: BLE001 - C-style status capture
            self.status.set_from(e)
            return int(self.status.code)
        return 0

    def check_options(self, options: PressioOptions | dict) -> int:
        """Validate without applying; returns 0 when acceptable."""
        options = _as_options(options)
        self.status.clear()
        try:
            self._validate_known_types(options)
            self._check_options(options)
        except Exception as e:  # noqa: BLE001
            self.status.set_from(e)
            return int(self.status.code)
        return 0

    def _thread_safety(self) -> str | None:
        """The plugin's ``thread_safety`` declaration, if it makes one."""
        return getattr(self, "thread_safety", None)

    def get_configuration(self) -> PressioOptions:
        cfg = self._configuration()
        cfg.set("pressio:version", self.version())
        declared = self._thread_safety()
        if declared is not None:
            # the declaration is the one source of both keys; its
            # "multithreaded" is pressio:thread_safe's "multiple"
            cfg.set("pressio:thread_safe", ThreadSafety.MULTIPLE
                    if declared == "multithreaded" else declared)
            cfg.set("pressio:thread_safety", declared)
        return cfg

    def get_documentation(self) -> PressioOptions:
        return self._documentation()

    def version(self) -> str:
        """Version string of the underlying implementation."""
        return "0.0.0"

    # ------------------------------------------------------------------
    def _validate_known_types(self, options: PressioOptions) -> None:
        """Reject values whose type cannot cast to the advertised type."""
        advertised = self._options()
        for key, opt in options.items():
            target = advertised.get_option(key)
            if target is None or not opt.has_value():
                continue
            if target.type in (OptionType.USERPTR, OptionType.DATA,
                               OptionType.UNSET):
                continue
            try:
                opt.cast(target.type, CastLevel.IMPLICIT)
            except InvalidOptionError as e:
                raise InvalidOptionError(
                    f"option {key!r}: {e.msg}", e.code
                ) from None

    # helpers used by subclasses -----------------------------------------
    def _take(self, options: PressioOptions, key: str, type: OptionType,
              current: Any) -> Any:
        """Fetch ``key`` from ``options`` cast to ``type``, else ``current``."""
        opt = options.get_option(key)
        if opt is None or not opt.has_value():
            return current
        if type in (OptionType.USERPTR, OptionType.DATA):
            return opt.get()
        return opt.cast(type, CastLevel.IMPLICIT).get()

    def error_code(self) -> int:
        return int(self.status.code)

    def error_msg(self) -> str:
        return self.status.msg

    def __repr__(self) -> str:
        return f"<{self.plugin_kind} {self.get_name()!r}>"


def _as_options(options: PressioOptions | dict) -> PressioOptions:
    if isinstance(options, PressioOptions):
        return options
    return PressioOptions(options)
