"""Contract rules (``PC*``): the uniform plugin contract, statically.

These enforce the Table I criteria the paper credits LibPressio with —
introspectable options, uniform error handling — plus the Section V
pitfall of calling a native with unvalidated dtype/dims.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..model import Finding, Severity
from ..project import ClassInfo, ProjectIndex, SourceModule
from ..visitor import (DOC_METHODS, OPTION_DECL_METHODS, OPTION_READ_METHODS,
                       OptionKey, extract_declared_keys, extract_doc_keys,
                       extract_field_keys, extract_read_keys,
                       handler_is_silent,
                       handler_routes_errors, has_dtype_validation,
                       is_native_call, iter_broad_handlers, keys_match)
from . import Rule, register_rule


def _declared_union(info: ClassInfo, index: ProjectIndex) -> list[OptionKey]:
    """Option keys advertised by the class or any resolvable ancestor:
    its ``fields`` table and its hand-written ``_options``."""
    declared: list[OptionKey] = []
    for cls in index.class_and_ancestors(info):
        declared.extend(extract_field_keys(cls, index))
        for method_name in OPTION_DECL_METHODS:
            fn = cls.methods.get(method_name)
            if fn is not None:
                declared.extend(extract_declared_keys(fn))
    return declared


def _is_plugin_class(info: ClassInfo, index: ProjectIndex) -> bool:
    if info.registered_kind is not None:
        return True
    for root in ("PressioCompressor", "PressioMetrics", "PressioIO",
                 "MetaCompressor", "Configurable"):
        if info.name != root and index.is_subclass_of(info, root):
            return True
    return False


@register_rule
class OptionSymmetryRule(Rule):
    """PC001: every option key a plugin consumes must be advertised."""

    rule_id = "PC001"
    name = "option-symmetry"
    severity = Severity.ERROR
    description = (
        "Option keys read in a hand-written _set_options must be declared, "
        "by a Field of the fields table or in _options (set or set_type), "
        "so get_options introspection covers every accepted key."
    )
    rationale = (
        "Table I: option introspection.  A key that set_options honors but "
        "get_options hides is invisible to tools, the CLI, and opt searches."
    )

    def check(self, module: SourceModule,
              index: ProjectIndex) -> Iterable[Finding]:
        for info in module.classes:
            if not _is_plugin_class(info, index):
                continue
            declared = _declared_union(info, index)
            for method_name in OPTION_READ_METHODS:
                fn = info.methods.get(method_name)
                if fn is None:
                    continue
                seen: set[str] = set()
                for key in extract_read_keys(fn):
                    if key.display() in seen:
                        continue
                    seen.add(key.display())
                    if not keys_match(key, declared):
                        yield self.finding(
                            module, key.node,
                            f"{info.name}.{method_name} reads option "
                            f"{key.display()!r} that no field or _options "
                            f"method of the class or its bases advertises",
                        )


@register_rule
class DocumentedKeysRule(Rule):
    """PC002: documented option keys must exist."""

    rule_id = "PC002"
    name = "docs-option-drift"
    severity = Severity.WARNING
    description = (
        "Keys documented in _documentation (other than pressio:description) "
        "must be advertised by _options; stale docs mislead every consumer "
        "of get_documentation."
    )
    rationale = (
        "Table I: introspectable documentation is only useful while it "
        "matches the real option set; drift is silent otherwise."
    )

    def check(self, module: SourceModule,
              index: ProjectIndex) -> Iterable[Finding]:
        for info in module.classes:
            if not _is_plugin_class(info, index):
                continue
            declared = _declared_union(info, index)
            if not declared:
                continue
            for method_name in DOC_METHODS:
                fn = info.methods.get(method_name)
                if fn is None:
                    continue
                for key in extract_doc_keys(fn):
                    if not keys_match(key, declared):
                        yield self.finding(
                            module, key.node,
                            f"{info.name}._documentation documents "
                            f"{key.display()!r} but no field or _options "
                            f"method of the class or its bases advertises "
                            f"it",
                        )


@register_rule
class NativeValidationRule(Rule):
    """PC003: validate dtype/dims before entering native code."""

    rule_id = "PC003"
    name = "unvalidated-native-call"
    severity = Severity.ERROR
    description = (
        "_compress bodies that call into repro.native must carry an explicit "
        "dtype/dims validation (an if-test over .dtype/.dims/.shape or a "
        "*validate* helper) so bad inputs fail with a taxonomy-coded error "
        "instead of an arbitrary exception deep in the native."
    )
    rationale = (
        "Paper Section V: MGARD erroring on <3 samples per dimension and "
        "ZFP block padding are contract violations callers hit at runtime "
        "when plugins skip early validation."
    )

    def check(self, module: SourceModule,
              index: ProjectIndex) -> Iterable[Finding]:
        for info in module.classes:
            fn = info.methods.get("_compress")
            if fn is None:
                continue
            native_calls = [node for node in ast.walk(fn)
                            if isinstance(node, ast.Call)
                            and is_native_call(node, module)]
            if not native_calls:
                continue
            if has_dtype_validation(fn):
                continue
            yield self.finding(
                module, native_calls[0],
                f"{info.name}._compress calls into repro.native without a "
                f"visible dtype/dims validation; reject unsupported inputs "
                f"with a typed PressioError before the native call",
            )


@register_rule
class BareExceptTaxonomyRule(Rule):
    """PC004: broad handlers must route through status/taxonomy."""

    rule_id = "PC004"
    name = "untracked-broad-except"
    severity = Severity.ERROR
    description = (
        "An except arm catching Exception/BaseException (or bare) must "
        "re-raise, capture to a C-style status (status.set_from), or bump "
        "the error-taxonomy counters (record_error/count); silent pass "
        "bodies are always flagged."
    )
    rationale = (
        "Table I: uniform error handling.  A swallowed exception neither "
        "reaches error_code/error_msg nor the pressio_errors_total taxonomy, "
        "so failures disappear from both the C-style API and monitoring."
    )

    def check(self, module: SourceModule,
              index: ProjectIndex) -> Iterable[Finding]:
        if module.tree is None:
            return
        for handler in iter_broad_handlers(module.tree):
            if handler_is_silent(handler):
                yield self.finding(
                    module, handler,
                    "broad except arm silently swallows the exception; "
                    "record it via status.set_from or an error-taxonomy "
                    "counter (repro.obs.runtime.record_error/count)",
                )
            elif not handler_routes_errors(handler):
                yield self.finding(
                    module, handler,
                    "broad except arm neither re-raises, captures status "
                    "(status.set_from), nor records an error-taxonomy "
                    "counter (record_error/count)",
                )
