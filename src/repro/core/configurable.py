"""Shared option machinery for compressors, metrics, and IO plugins.

Every plugin kind in LibPressio exposes the same verbs —
``get_options`` / ``set_options`` / ``check_options`` /
``get_configuration`` / ``clone`` — plus documentation.  This module
implements them once.  A plugin declares each option once, as a
:class:`Field` in its ``fields`` table; the default ``_options``,
``_set_options`` and ``_documentation`` report, take and document every
field.  A set is all-or-nothing, and a check is that set run on a
clone.  ``get_configuration`` carries *read-only* facts such as
thread safety and API stability, the introspection data Table I credits
LibPressio with and faults string-typed interfaces for lacking.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any

from .options import CastLevel, OptionType, PressioOptions
from .status import InvalidOptionError, PressioError, Status

__all__ = ["Configurable", "Field", "ThreadSafety", "Stability", "set_each"]


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


@dataclass(frozen=True)
class Field:
    """One option, declared once: where it lives, its type, its domain.

    ``key`` is the option name.  A key without a ``:`` is the plugin's
    own and is qualified with its :meth:`~Configurable.prefix`, so a
    renamed instance answers to its new name; a key with a ``:``
    (``"sz:abs_err_bound"``, ``"pressio:abs"``, ``"io:path"``) is used
    as written.  ``attr`` names the instance attribute holding the value
    (a dotted path reaches into a member, ``"_params.absErrBound"``).
    ``low`` and ``high`` are inclusive bounds (``high`` only with
    ``low``), ``positive`` rejects a value at or below zero, and
    ``choices`` lists the accepted values.  An option with a ``doc``
    appears in ``get_documentation``.
    """

    key: str
    attr: str
    type: OptionType
    doc: str | None = None
    low: float | None = None
    high: float | None = None
    positive: bool = False
    choices: tuple | None = None

    def qualified(self, plugin: "Configurable") -> str:
        return self.key if ":" in self.key else plugin._qualify(self.key)

    def _owner(self, plugin: "Configurable") -> tuple[Any, str]:
        path, _, name = self.attr.rpartition(".")
        return (attrgetter(path)(plugin) if path else plugin), name

    def get(self, plugin: "Configurable") -> Any:
        owner, name = self._owner(plugin)
        return getattr(owner, name)

    def take(self, plugin: "Configurable", options: PressioOptions) -> bool:
        """Cast and assign this option's value from ``options``; False
        when ``options`` holds none."""
        opt = options.get_option(self.qualified(plugin))
        if opt is None or not opt.has_value():
            return False
        owner, name = self._owner(plugin)
        setattr(owner, name, opt.cast(self.type, CastLevel.IMPLICIT).get())
        return True

    def check(self, plugin: "Configurable") -> None:
        """Raise :class:`InvalidOptionError` when the value held is
        outside the declared domain."""
        value, key = self.get(plugin), self.qualified(plugin)
        if self.choices is not None and value not in self.choices:
            names = [str(c) for c in self.choices]
            if len(names) > 2:
                names = [", ".join(names[:-1]) + ",", names[-1]]
            raise InvalidOptionError(f"{key} must be {' or '.join(names)}")
        if self.positive and value <= 0:
            raise InvalidOptionError(f"{key} must be positive")
        if self.high is not None and not self.low <= value <= self.high:
            raise InvalidOptionError(
                f"{key} must be in [{self.low}, {self.high}]")
        if self.low is not None and value < self.low:
            raise InvalidOptionError(f"{key} must be >= {self.low}")


class Configurable:
    """Base class implementing the uniform options protocol."""

    #: plugin id within its registry, e.g. ``"sz"``; set by subclasses
    plugin_id: str = "unknown"

    #: plugin kind prefix used in fully-qualified names ("compressor", ...)
    plugin_kind: str = "configurable"

    #: the plugin's options, each declared once
    fields: tuple[Field, ...] = ()

    #: the ``pressio:description`` documentation entry
    description: str | None = None

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
        """Return the plugin's current options (qualified names): every
        field's value, or its type alone while the value is None."""
        opts = PressioOptions()
        for field in self.fields:
            value = field.get(self)
            if value is None:
                opts.set_type(field.qualified(self), field.type)
            else:
                opts.set(field.qualified(self), value, field.type)
        return opts

    def _set_options(self, options: PressioOptions) -> None:
        """Apply recognized entries of ``options``; ignore foreign keys.

        The default takes every field ``options`` holds, then checks
        each taken field's final value, so of two fields sharing an
        attribute (an alias) the later one wins before the check.
        Raise (``InvalidOptionError``, or a native's ``ValueError``) on
        an unusable value; :meth:`set_options` then undoes what this
        call applied through :meth:`_restore`, and :meth:`check_options`
        reports the same error.
        """
        taken = [f for f in self.fields if f.take(self, options)]
        for field in taken:
            field.check(self)

    def _restore(self, before: PressioOptions) -> None:
        """Undo a rejected :meth:`_set_options` by re-applying ``before``,
        the options this plugin held before the call.

        A plugin that forwards options to child plugins overrides this:
        ``before`` merges the children's options, so a key two children
        share holds one child's value only.  Such a plugin's
        ``_set_options`` undoes its children itself (:func:`set_each`).
        """
        self._set_options(before)

    def _configuration(self) -> PressioOptions:
        """Read-only facts: thread safety, stability, version, ..."""
        cfg = PressioOptions()
        cfg.set("pressio:thread_safe", ThreadSafety.SERIALIZED)
        cfg.set("pressio:stability", Stability.STABLE)
        return cfg

    def _documentation(self) -> PressioOptions:
        """Human-readable descriptions: the plugin's ``description`` and
        each field's ``doc``."""
        docs = PressioOptions()
        if self.description is not None:
            docs.set("pressio:description", self.description)
        for field in self.fields:
            if field.doc is not None:
                docs.set(field.qualified(self), field.doc)
        return docs

    def _discard(self) -> None:
        """Release what a throwaway instance (a check's trial) holds."""

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
        incompatible types or unusable values return an error.  A set is
        all-or-nothing: when any entry is rejected, :meth:`_restore`
        undoes what was applied, so a rejected set changes nothing.
        """
        options = _as_options(options)
        self.status.clear()
        before = self._options()
        try:
            self._validate_known_types(options, before)
        except Exception as e:  # noqa: BLE001 - C-style status capture
            # rejected before anything was applied: nothing to undo
            self.status.set_from(e)
            return int(self.status.code)
        try:
            self._set_options(options)
        except Exception as e:  # noqa: BLE001 - C-style status capture
            if isinstance(e, (ValueError, OverflowError)):
                # a native's own domain check, typed as compress types it
                e = InvalidOptionError(
                    f"{self.get_name()} rejected the options: {e}")
            self.status.set_from(e)
            try:
                self._restore(before)
            except Exception as undo:  # noqa: BLE001
                self.status.set_from(PressioError(
                    f"{self.status.msg}; restoring the earlier options "
                    f"failed: {undo}", self.status.code))
            return int(self.status.code)
        return 0

    def check_options(self, options: PressioOptions | dict) -> int:
        """Validate without applying; returns 0 when acceptable.

        Runs :meth:`set_options` on a :meth:`clone` and reports that
        trial's code and message, so a check never disagrees with a set
        and never changes this plugin.
        """
        self.status.clear()
        try:
            trial = self.clone()
        except PressioError as e:
            self.status.set_from(e)
            return int(self.status.code)
        try:
            rc = trial.set_options(options)
        finally:
            trial._discard()
        self.status.set(trial.status.code, trial.status.msg)
        return rc

    def clone(self) -> "Configurable":
        """Independent instance with the same name and options (for
        thread pools and :meth:`check_options` trials)."""
        dup = type(self)()
        if self._name is not None:
            dup.set_name(self._name)
        # _options(), not get_options(): a clone fires no metrics hook
        if dup.set_options(self._options()) != 0:
            dup._discard()
            raise PressioError(f"clone failed: {dup.status.msg}",
                               dup.status.code)
        return dup

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
    def _validate_known_types(self, options: PressioOptions,
                              advertised: PressioOptions) -> None:
        """Reject values whose type cannot cast to the ``advertised`` type."""
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


def set_each(children, options: PressioOptions | dict) -> None:
    """Apply ``options`` to every child plugin, or to none of them.

    Each child's own set is all-or-nothing.  When one rejects, the
    children that accepted get back what they held, each from its own
    snapshot, and the rejection is raised with that child's code and
    message.
    """
    accepted = []
    for child in children:
        before = child._options()
        if child.set_options(options) != 0:
            for earlier, snapshot in reversed(accepted):
                earlier.set_options(snapshot)
            raise PressioError(child.error_msg(), child.error_code())
        accepted.append((child, before))


def _as_options(options: PressioOptions | dict) -> PressioOptions:
    if isinstance(options, PressioOptions):
        return options
    return PressioOptions(options)
