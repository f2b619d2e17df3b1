"""Hot-path rules (``HP*``): the <1% disabled-observability pin.

``tests/trace/test_overhead.py`` *samples* the claim that a disabled
observer costs one module-global read; these rules *prove* the
syntactic form that makes it true, so a stray logging or tracing call
slipped into an operation body fails CI instead of a timing test that
may or may not notice it under scheduler noise.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..model import Finding, Severity
from ..project import ProjectIndex, SourceModule, dotted_name
from ..visitor import GuardedCallVisitor, classify_observability_call
from . import Rule, register_rule

_OP_METHODS = ("_compress", "_decompress")
_HOT_FN_NAMES = ("compress", "decompress")
_HOT_FN_PREFIXES = ("_compress", "_decompress", "_encode", "_decode")


def _is_hot_function(name: str) -> bool:
    """Module-level names that sit on the per-operation hot path.

    The native cores expose ``compress``/``decompress`` plus stage
    helpers like ``_encode_codes``; the prefix match requires a word
    boundary so ``_compressor_producer`` and friends stay out of scope.
    """
    if name in _HOT_FN_NAMES:
        return True
    return any(name == p or name.startswith(p + "_")
               for p in _HOT_FN_PREFIXES)


def _hot_scopes(module: SourceModule):
    """``(label, function)`` for every body HP001 checks.

    Plugin ``_compress``/``_decompress`` methods, and module-level hot
    functions (see :func:`_is_hot_function`).
    """
    for info in module.classes:
        for method_name in _OP_METHODS:
            fn = info.methods.get(method_name)
            if fn is not None:
                yield f"{info.name}.{method_name}", fn
    if module.tree is None:
        return
    for node in module.tree.body:
        if isinstance(node, ast.FunctionDef) and _is_hot_function(node.name):
            yield f"hot function {node.name}", node


def _with_stage_calls(fn: ast.FunctionDef) -> set[int]:
    """Ids of ``X.stage(...)`` calls used directly as ``with`` items."""
    return {id(item.context_expr)
            for node in ast.walk(fn) if isinstance(node, ast.With)
            for item in node.items
            if isinstance(item.context_expr, ast.Call)
            and (dotted_name(item.context_expr.func) or ""
                 ).split(".")[-1] == "stage"}


@register_rule
class UnguardedObservabilityRule(Rule):
    """HP001: observability calls on the hot path need a sentinel guard."""

    rule_id = "HP001"
    name = "unguarded-observability"
    severity = Severity.ERROR
    description = (
        "Inside plugin _compress/_decompress bodies and module-level hot "
        "functions (compress/decompress and _compress*/_decompress*/"
        "_encode*/_decode* helpers), calls into the tracer, the profiler, "
        "the metrics registry, loggers/print, or plugin registries must "
        "sit inside an if whose test reads repro._hot.ANY or a runtime "
        "ACTIVE sentinel, or inside an except arm (the cold error path).  "
        "The one exception is _trace.stage(...) used directly as a with "
        "item: it returns a shared null context when tracing is off."
    )
    rationale = (
        "Paper Fig. 3 / ROADMAP <1% overhead pin: unguarded observability "
        "on the hot path costs attribute lookups and calls on every "
        "operation even when nothing is watching — in the plugin bodies "
        "and, below the wrappers HP002 pins, inside the native cores."
    )

    def check(self, module: SourceModule,
              index: ProjectIndex) -> Iterable[Finding]:
        for where, fn in _hot_scopes(module):
            allowed = _with_stage_calls(fn)
            for call, guarded in GuardedCallVisitor().visit(fn).calls:
                if guarded:
                    continue
                label = classify_observability_call(call, module)
                if label is None or (label == "trace"
                                     and id(call) in allowed):
                    continue
                target = dotted_name(call.func) or "<call>"
                yield self.finding(
                    module, call,
                    f"{where} performs an unguarded {label} call "
                    f"({target}); guard it with 'if _hot.ANY:' / "
                    f"'if _trace.ACTIVE is not None:', or for a span use "
                    f"'with _trace.stage(...):', so the disabled path "
                    f"does no observer work",
                )


def _range_iterates_elements(call: ast.Call) -> str | None:
    """For a ``range(...)`` call, the data-sized argument it loops over.

    Returns the source-ish spelling of the first argument that scales
    with array contents — an ``<expr>.size`` / ``<expr>.shape[...]``
    attribute or a ``len(<expr>)`` call — or None when the trip count is
    structural (``range(ndim)``, ``range(8)``, ...).
    """
    for arg in call.args:
        node = arg
        # unwrap arithmetic like range(n.size - 1) or len(x) // 2
        while isinstance(node, ast.BinOp):
            node = node.left
        if isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute) and node.attr in ("size",
                                                            "shape"):
            base = dotted_name(node.value) or "<expr>"
            return f"{base}.{node.attr}"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "len" and node.args):
            base = dotted_name(node.args[0]) or "<expr>"
            return f"len({base})"
    return None


@register_rule
class PerElementLoopRule(Rule):
    """HP004: no per-element Python loops inside hot functions."""

    rule_id = "HP004"
    name = "per-element-python-loop"
    severity = Severity.WARNING
    description = (
        "Module-level hot functions (compress/decompress and "
        "_compress*/_decompress*/_encode*/_decode* helpers) must not "
        "contain 'for ... in range(<data size>)' loops — range() over an "
        "array's .size/.shape or len() of a buffer iterates Python "
        "bytecode once per element; vectorize with numpy instead."
    )
    rationale = (
        "The throughput work trades per-element interpretation for "
        "whole-array numpy kernels; a scalar loop reintroduced into a "
        "hot function undoes that silently — it is correct, just 100x "
        "slower, so only a benchmark would notice.  Intentionally scalar "
        "code (the encoders' audit references) is suppressed via the "
        "lint baseline, never by renaming."
    )

    def check(self, module: SourceModule,
              index: ProjectIndex) -> Iterable[Finding]:
        if module.tree is None:
            return
        for node in module.tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            if not _is_hot_function(node.name):
                continue
            for inner in ast.walk(node):
                if not isinstance(inner, ast.For):
                    continue
                it = inner.iter
                if not (isinstance(it, ast.Call)
                        and isinstance(it.func, ast.Name)
                        and it.func.id == "range"):
                    continue
                sized = _range_iterates_elements(it)
                if sized is None:
                    continue
                yield self.finding(
                    module, inner,
                    f"hot function {node.name} loops element-by-element "
                    f"(for ... in range({sized})); hoist this into a "
                    f"vectorized numpy expression, or baseline it if the "
                    f"scalar form is the point (reference/audit code)",
                )


def _is_hot_guard_stmt(stmt: ast.stmt, op_attr: str) -> bool:
    """Match ``if not <...>.ANY: return self._compress_op(...)``."""
    if not isinstance(stmt, ast.If) or stmt.orelse:
        return False
    test = stmt.test
    if not (isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not)):
        return False
    sentinel = dotted_name(test.operand) or ""
    if sentinel.split(".")[-1] != "ANY":
        return False
    if len(stmt.body) != 1 or not isinstance(stmt.body[0], ast.Return):
        return False
    value = stmt.body[0].value
    if not isinstance(value, ast.Call):
        return False
    return (dotted_name(value.func) or "").split(".")[-1] == op_attr


@register_rule
class HotWrapperGuardRule(Rule):
    """HP002: public wrappers must open with the single-read fast path."""

    rule_id = "HP002"
    name = "hot-wrapper-guard"
    severity = Severity.ERROR
    description = (
        "In a class that defines _compress_op/_decompress_op, the public "
        "compress/decompress wrappers must begin with "
        "'if not _hot.ANY: return self._compress_op(...)' so the disabled "
        "path performs exactly one module-global read before the body."
    )
    rationale = (
        "This is the statically checkable form of the overhead claim: "
        "any statement before that guard executes on every call, watched "
        "or not, and silently erodes the <1% pin."
    )

    def check(self, module: SourceModule,
              index: ProjectIndex) -> Iterable[Finding]:
        for info in module.classes:
            for public, op_attr in (("compress", "_compress_op"),
                                    ("decompress", "_decompress_op")):
                if op_attr not in info.methods:
                    continue
                fn = info.methods.get(public)
                if fn is None:
                    continue
                body = [stmt for stmt in fn.body
                        if not (isinstance(stmt, ast.Expr)
                                and isinstance(stmt.value, ast.Constant))]
                if body and _is_hot_guard_stmt(body[0], op_attr):
                    continue
                yield self.finding(
                    module, body[0] if body else fn,
                    f"{info.name}.{public} must start with the hot-path "
                    f"fast path 'if not _hot.ANY: return "
                    f"self.{op_attr}(...)'; anything before it runs on "
                    f"every call even with observability disabled",
                )
