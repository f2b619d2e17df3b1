"""Shared AST inspection helpers used by the rule packs.

Everything here is heuristic in the way useful static analysis is:
option keys are recognized when written as literals (or prefix
f-strings), guards are recognized by the sentinel names the runtime
exposes (``repro._hot.ANY``, ``ACTIVE``), a plugin's ``fields`` table
is read from its ``Field(KEY, ...)`` calls, and call classification
resolves receivers through each module's import aliases.  The rules
document these boundaries; dynamic constructs simply fall outside the
checked contract.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .project import ClassInfo, ProjectIndex, SourceModule, dotted_name

__all__ = [
    "OPTION_DECL_METHODS", "OPTION_READ_METHODS", "DOC_METHODS",
    "OptionKey", "extract_declared_keys", "extract_field_keys",
    "extract_read_keys",
    "extract_doc_keys", "keys_match", "iter_broad_handlers",
    "handler_is_silent", "handler_routes_errors", "is_abstract_method",
    "GuardedCallVisitor", "classify_observability_call", "is_native_call",
    "has_dtype_validation", "collect_worker_defs", "function_locals",
]

OPTION_DECL_METHODS = ("_options",)
OPTION_READ_METHODS = ("_set_options",)
DOC_METHODS = ("_documentation",)


class OptionKey:
    """A literal option key, or a prefix-wildcard from an f-string.

    ``f"{self.prefix()}:nthreads"`` is represented as the wildcard
    suffix ``":nthreads"`` so declaration and read sides written with
    dynamic prefixes still pair up.
    """

    __slots__ = ("kind", "text", "node")

    def __init__(self, kind: str, text: str, node: ast.AST):
        self.kind = kind  # "lit" | "wild"
        self.text = text
        self.node = node

    def display(self) -> str:
        return self.text if self.kind == "lit" else f"<prefix>{self.text}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OptionKey({self.kind}, {self.text!r})"


def _key_from_node(node: ast.AST) -> OptionKey | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        if ":" in node.value:
            return OptionKey("lit", node.value, node)
        return None
    if isinstance(node, ast.JoinedStr):
        has_dynamic = any(isinstance(v, ast.FormattedValue)
                          for v in node.values)
        tail = node.values[-1] if node.values else None
        if (has_dynamic and isinstance(tail, ast.Constant)
                and isinstance(tail.value, str) and ":" in tail.value):
            return OptionKey("wild", tail.value[tail.value.index(":"):], node)
    return None


def extract_declared_keys(fn: ast.FunctionDef) -> list[OptionKey]:
    """Keys advertised via ``opts.set(...)`` / ``opts.set_type(...)``."""
    out: list[OptionKey] = []
    for node in ast.walk(fn):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("set", "set_type") and node.args):
            key = _key_from_node(node.args[0])
            if key is not None:
                out.append(key)
    return out


def _field_calls(node: ast.AST, index: ProjectIndex,
                 seen: set[str]) -> list[ast.Call]:
    """``Field(...)`` calls in ``node`` and in the module-level
    assignments of the names it reads (``NTHREADS = Field(...)``,
    anywhere in the project)."""
    calls: list[ast.Call] = []
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Call)
                and (dotted_name(sub.func) or "").split(".")[-1] == "Field"):
            calls.append(sub)
        elif isinstance(sub, ast.Name) and sub.id not in seen:
            seen.add(sub.id)
            found = index.module_values.get(sub.id)
            if found is not None:
                calls.extend(_field_calls(found[1], index, seen))
    return calls


def extract_field_keys(info: ClassInfo,
                       index: ProjectIndex) -> list[OptionKey]:
    """Keys of the class's ``fields`` table: a key with a ``:`` as
    written, one without as the prefix wildcard ``:KEY`` (the runtime
    qualifies it with the plugin's name).  A field is declared, read and
    documented by the one default implementation, so its key counts as
    all three."""
    out: list[OptionKey] = []
    for stmt in info.node.body:
        if not (isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "fields"
                for t in stmt.targets)):
            continue
        for call in _field_calls(stmt.value, index, set()):
            key = call.args[0] if call.args else None
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                if ":" in key.value:
                    out.append(OptionKey("lit", key.value, key))
                else:
                    out.append(OptionKey("wild", f":{key.value}", key))
    return out


def extract_read_keys(fn: ast.FunctionDef) -> list[OptionKey]:
    """Keys consumed from the incoming options object.

    Recognized shapes: ``self._take(options, KEY, ...)``,
    ``options.get(KEY[, default])``, ``options.get_as(KEY, ...)``, and
    ``KEY in options`` membership tests.
    """
    out: list[OptionKey] = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr == "_take" and len(node.args) >= 2:
                key = _key_from_node(node.args[1])
                if key is not None:
                    out.append(key)
            elif (attr in ("get", "get_as", "get_option") and node.args
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "options"):
                key = _key_from_node(node.args[0])
                if key is not None:
                    out.append(key)
        elif isinstance(node, ast.Compare):
            if (len(node.ops) == 1 and isinstance(node.ops[0], ast.In)
                    and isinstance(node.comparators[0], ast.Name)
                    and node.comparators[0].id == "options"):
                key = _key_from_node(node.left)
                if key is not None:
                    out.append(key)
    return out


def extract_doc_keys(fn: ast.FunctionDef) -> list[OptionKey]:
    """Keys documented via ``docs.set(KEY, text)``."""
    return [k for k in extract_declared_keys(fn)
            if k.text not in ("pressio:description",)]


def keys_match(read: OptionKey, declared: list[OptionKey]) -> bool:
    for decl in declared:
        if decl.kind == "lit" and read.kind == "lit":
            if decl.text == read.text:
                return True
        elif decl.kind == "wild" and read.kind == "wild":
            if decl.text == read.text:
                return True
        elif decl.kind == "wild" and read.kind == "lit":
            if read.text.endswith(decl.text):
                return True
        elif decl.kind == "lit" and read.kind == "wild":
            if decl.text.endswith(read.text):
                return True
    return False


# ---------------------------------------------------------------------------
# exception handlers
# ---------------------------------------------------------------------------

_BROAD = ("Exception", "BaseException")


def iter_broad_handlers(tree: ast.AST) -> Iterator[ast.ExceptHandler]:
    """Handlers catching bare ``except:``, Exception, or BaseException."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Try):
            continue
        for handler in node.handlers:
            if handler.type is None:
                yield handler
                continue
            types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
                     else [handler.type])
            for t in types:
                if (dotted_name(t) or "").split(".")[-1] in _BROAD:
                    yield handler
                    break


def handler_is_silent(handler: ast.ExceptHandler) -> bool:
    """True when the body does nothing observable (pass / ``...``)."""
    for stmt in handler.body:
        if isinstance(stmt, ast.Pass):
            continue
        if (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)):
            continue
        return False
    return True


_TAXONOMY_CALLS = ("record_error", "count")


def handler_routes_errors(handler: ast.ExceptHandler) -> bool:
    """True when the handler re-raises, captures status, or counts.

    The accepted routes are exactly the C-style contract: a bare or
    typed ``raise``, a ``*.status.set_from(exc)`` capture, or a
    taxonomy counter bump (``record_error`` / ``count`` from
    :mod:`repro.obs.runtime`).
    """
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
    for node in ast.walk(handler):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func) or ""
        last = name.split(".")[-1]
        if last == "set_from" and ".status." in f".{name}":
            return True
        if last in _TAXONOMY_CALLS:
            return True
    return False


def is_abstract_method(fn: ast.FunctionDef) -> bool:
    """True for ``raise NotImplementedError`` / ellipsis-only bodies."""
    body = [stmt for stmt in fn.body
            if not (isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant))]
    if not body:
        return True
    if len(body) == 1 and isinstance(body[0], ast.Raise):
        exc = body[0].exc
        name = (dotted_name(exc) or "").split(".")[-1]
        return name == "NotImplementedError"
    if len(body) == 1 and isinstance(body[0], ast.Pass):
        return True
    return False


# ---------------------------------------------------------------------------
# hot-path guard tracking
# ---------------------------------------------------------------------------

_GUARD_TAILS = ("ANY", "ACTIVE")


def _test_is_guard(test: ast.AST) -> bool:
    """True when an ``if`` test reads a hot-path sentinel.

    Recognized: ``_hot.ANY``, ``_trace.ACTIVE``, ``ACTIVE``, and any
    dotted chain ending in one of those (including negated and
    ``is (not) None`` comparison forms — the walk sees the leaf reads).
    """
    for node in ast.walk(test):
        name = dotted_name(node)
        if name and name.split(".")[-1] in _GUARD_TAILS:
            return True
    return False


class GuardedCallVisitor:
    """Collect calls in a function body with their guardedness.

    A call is *guarded* when it executes only while observability is
    enabled: syntactically inside the body of an ``if`` whose test reads
    a sentinel (``_hot.ANY`` / ``ACTIVE``), or inside an ``except``
    handler (the cold error path).
    """

    def __init__(self) -> None:
        self.calls: list[tuple[ast.Call, bool]] = []

    def visit(self, fn: ast.FunctionDef) -> "GuardedCallVisitor":
        for stmt in fn.body:
            self._visit(stmt, guarded=False)
        return self

    def _visit(self, node: ast.AST, guarded: bool) -> None:
        if isinstance(node, ast.Call):
            self.calls.append((node, guarded))
        if isinstance(node, ast.If) and _test_is_guard(node.test):
            self._visit(node.test, guarded)
            for child in node.body:
                self._visit(child, True)
            for child in node.orelse:
                self._visit(child, guarded)
            return
        if isinstance(node, ast.ExceptHandler):
            for child in ast.iter_child_nodes(node):
                self._visit(child, True)
            return
        for child in ast.iter_child_nodes(node):
            self._visit(child, guarded)


_LOG_METHODS = ("debug", "info", "warning", "error", "critical",
                "exception", "log")


def classify_observability_call(call: ast.Call,
                                module: SourceModule) -> str | None:
    """Name the observability subsystem a call enters, if any.

    Returns "trace", "profile", "metrics", "logging", or "registry" —
    or None for ordinary calls.  Receivers are resolved through the
    module's import aliases, so both ``from ..trace import runtime as
    _trace`` and direct ``from ..trace.runtime import annotate`` forms
    classify.
    """
    name = dotted_name(call.func) or ""
    if not name:
        return None
    parts = name.split(".")
    root, last = parts[0], parts[-1]
    source = module.alias_source(root)
    if "profile" in source or root == "_profile":
        return "profile"
    if "trace" in source or root == "_trace":
        return "trace"
    if "obs" in source.split(".") or root == "_obs":
        return "metrics"
    if (root == "logging" or name == "print" or last == "get_logger"
            or (root in module.logger_names and (len(parts) == 1
                                                 or last in _LOG_METHODS))):
        return "logging"
    if last == "create" and len(parts) >= 2:
        recv = parts[-2]
        recv_source = module.alias_source(parts[0])
        if "registry" in recv or "registry" in recv_source:
            return "registry"
    return None


def is_native_call(call: ast.Call, module: SourceModule) -> bool:
    """True when the call resolves into :mod:`repro.native`."""
    name = dotted_name(call.func) or ""
    if not name:
        return False
    root = name.split(".")[0]
    source = module.alias_source(root)
    return "native" in source.split(".")


def has_dtype_validation(fn: ast.FunctionDef) -> bool:
    """True when the method checks dtype/dims before doing work.

    Recognized: an ``if`` test that reads a ``.dtype`` attribute (or a
    bare ``dtype`` name), an ``if`` test over ``.dims`` / ``.shape`` /
    ``.ndim``, or a call to a ``*validate*`` helper.
    """
    for node in ast.walk(fn):
        if isinstance(node, ast.If):
            for sub in ast.walk(node.test):
                if isinstance(sub, ast.Attribute) and sub.attr in (
                        "dtype", "dims", "shape", "ndim"):
                    return True
                if isinstance(sub, ast.Name) and sub.id == "dtype":
                    return True
        elif isinstance(node, ast.Call):
            name = (dotted_name(node.func) or "").split(".")[-1]
            if "validate" in name:
                return True
    return False


# ---------------------------------------------------------------------------
# thread-mapped worker detection
# ---------------------------------------------------------------------------

_POOL_METHODS = ("submit", "map", "_map", "run_tasks", "wrap_task",
                 "imap", "imap_unordered", "apply_async", "starmap")


def collect_worker_defs(fn: ast.FunctionDef) -> list[ast.FunctionDef]:
    """Nested defs handed to a thread pool or ``run_tasks`` inside ``fn``."""
    nested = {}
    for node in ast.walk(fn):
        if isinstance(node, ast.FunctionDef) and node is not fn:
            nested[node.name] = node
    submitted: list[ast.FunctionDef] = []
    seen: set[str] = set()
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func) or ""
        if name.split(".")[-1] not in _POOL_METHODS:
            continue
        for arg in node.args[:2]:
            if isinstance(arg, ast.Name) and arg.id in nested \
                    and arg.id not in seen:
                seen.add(arg.id)
                submitted.append(nested[arg.id])
    return submitted


def function_locals(fn: ast.FunctionDef) -> set[str]:
    """Names local to ``fn``: params plus anything bound inside it."""
    names: set[str] = set()
    args = fn.args
    for a in (args.posonlyargs + args.args + args.kwonlyargs):
        names.add(a.arg)
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)

    def bind(target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                bind(elt)
        elif isinstance(target, ast.Starred):
            bind(target.value)

    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                bind(target)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            bind(node.target)
        elif isinstance(node, ast.For):
            bind(node.target)
        elif isinstance(node, ast.withitem) and node.optional_vars:
            bind(node.optional_vars)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, ast.comprehension):
            bind(node.target)
        elif isinstance(node, ast.FunctionDef) and node is not fn:
            names.add(node.name)
    return names
