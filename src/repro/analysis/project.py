"""Parse the analyzed tree once and index what rules need.

Rules are cross-file: whether ``SZOmpCompressor`` declares a
``thread_safety`` field depends on ``SZThreadsafeCompressor`` in the
same file and ``SZCompressor`` in another, and whether an option key
read in ``_set_options`` is advertised depends on ``_options`` methods
anywhere up the inheritance chain.  The :class:`ProjectIndex` resolves
those questions so individual rules stay single-purpose.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field

__all__ = ["SourceModule", "ClassInfo", "ProjectIndex", "dotted_name",
           "const_str"]


def dotted_name(node: ast.AST | None) -> str | None:
    """Render ``a.b.c`` attribute/name chains; None for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return f"{base}.{node.attr}" if base else None
    if isinstance(node, ast.Call):
        # decorator factories: compressor_plugin("sz") -> compressor_plugin
        return dotted_name(node.func)
    return None


def const_str(node: ast.AST | None) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


@dataclass
class ClassInfo:
    """A class definition plus the facts rules ask about."""

    name: str
    module: "SourceModule"
    node: ast.ClassDef
    bases: list[str] = field(default_factory=list)
    decorators: list[str] = field(default_factory=list)
    #: plugin id from @compressor_plugin("id")-style decorators
    plugin_id: str | None = None
    #: "compressor" / "metric" / "io" when registered, else None
    registered_kind: str | None = None
    #: class-body string assignments, e.g. thread_safety = "serialized"
    str_attrs: dict[str, str] = field(default_factory=dict)
    #: class-body assignment targets of any type
    attr_names: set[str] = field(default_factory=set)
    methods: dict[str, ast.FunctionDef] = field(default_factory=dict)

    @property
    def qualname(self) -> str:
        return f"{self.module.rel}:{self.name}"


_DECORATOR_KINDS = {
    "compressor_plugin": "compressor",
    "metric_plugin": "metric",
    "io_plugin": "io",
}
_REGISTER_KINDS = {
    "register_compressor": "compressor",
    "register_metric": "metric",
    "register_io": "io",
}


class SourceModule:
    """One parsed file: source text, AST, imports, and classes."""

    def __init__(self, path: str, rel: str, source: str):
        self.path = path
        self.rel = rel.replace(os.sep, "/")
        self.source = source
        self.lines = source.splitlines()
        self.parse_error: SyntaxError | None = None
        try:
            self.tree: ast.Module | None = ast.parse(source, filename=rel)
        except SyntaxError as e:
            self.tree = None
            self.parse_error = e
        #: import alias -> dotted source module string as written
        #: ("..native.mgard", "repro.trace.runtime", ...)
        self.import_sources: dict[str, str] = {}
        #: module-level names bound to logger factories (NAME = get_logger(..))
        self.logger_names: set[str] = set()
        self.classes: list[ClassInfo] = []
        if self.tree is not None:
            self._index()

    # -- indexing ---------------------------------------------------------
    def _index(self) -> None:
        assert self.tree is not None
        for node in self.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.import_sources[alias.asname or
                                        alias.name.split(".")[0]] = alias.name
            elif isinstance(node, ast.ImportFrom):
                prefix = "." * node.level + (node.module or "")
                for alias in node.names:
                    self.import_sources[alias.asname or alias.name] = (
                        f"{prefix}.{alias.name}" if prefix else alias.name
                    )
            elif isinstance(node, ast.Assign):
                self._index_module_assign(node)
            elif isinstance(node, ast.ClassDef):
                self.classes.append(self._index_class(node))
        # module-level register_compressor("id", ClassName) calls
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.Call):
                continue
            fn = dotted_name(node.func)
            kind = _REGISTER_KINDS.get((fn or "").split(".")[-1])
            if kind is None or len(node.args) < 2:
                continue
            target = node.args[1]
            if isinstance(target, ast.Name):
                for info in self.classes:
                    if info.name == target.id:
                        info.registered_kind = info.registered_kind or kind
                        info.plugin_id = (info.plugin_id
                                          or const_str(node.args[0]))

    def _index_module_assign(self, node: ast.Assign) -> None:
        if not (isinstance(node.value, ast.Call)):
            return
        fn = dotted_name(node.value.func) or ""
        if fn.split(".")[-1] in ("get_logger", "getLogger"):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.logger_names.add(target.id)

    def _index_class(self, node: ast.ClassDef) -> ClassInfo:
        info = ClassInfo(name=node.name, module=self, node=node)
        for base in node.bases:
            name = dotted_name(base)
            if name:
                info.bases.append(name)
        for deco in node.decorator_list:
            name = dotted_name(deco)
            if not name:
                continue
            info.decorators.append(name)
            kind = _DECORATOR_KINDS.get(name.split(".")[-1])
            if kind is not None:
                info.registered_kind = kind
                if isinstance(deco, ast.Call) and deco.args:
                    info.plugin_id = const_str(deco.args[0])
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods[stmt.name] = stmt  # type: ignore[assignment]
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        info.attr_names.add(target.id)
                        value = const_str(stmt.value)
                        if value is not None:
                            info.str_attrs[target.id] = value
            elif isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name):
                    info.attr_names.add(stmt.target.id)
                    value = const_str(stmt.value)
                    if value is not None:
                        info.str_attrs[stmt.target.id] = value
        return info

    # -- queries ----------------------------------------------------------
    def alias_source(self, name: str) -> str:
        """The import source string an alias was bound from ('' if local)."""
        return self.import_sources.get(name, "")

    def line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


class ProjectIndex:
    """All modules under analysis plus cross-file class resolution."""

    def __init__(self, modules: list[SourceModule]):
        self.modules = modules
        #: bare class name -> ClassInfo (first definition wins)
        self.classes_by_name: dict[str, ClassInfo] = {}
        #: module-level ``NAME = value`` assignments (first one wins)
        self.module_values: dict[str, tuple[SourceModule, ast.AST]] = {}
        for module in modules:
            for info in module.classes:
                self.classes_by_name.setdefault(info.name, info)
            for stmt in module.tree.body if module.tree is not None else ():
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            self.module_values.setdefault(
                                target.id, (module, stmt.value))

    def resolve_base(self, name: str) -> ClassInfo | None:
        """Resolve a base written as ``Name`` or ``pkg.Name``."""
        return self.classes_by_name.get(name.split(".")[-1])

    def ancestors(self, info: ClassInfo) -> list[ClassInfo]:
        """Project-resolvable ancestors, nearest first, cycle-safe."""
        out: list[ClassInfo] = []
        seen = {info.name}
        queue = list(info.bases)
        while queue:
            base = self.resolve_base(queue.pop(0))
            if base is None or base.name in seen:
                continue
            seen.add(base.name)
            out.append(base)
            queue.extend(base.bases)
        return out

    def is_subclass_of(self, info: ClassInfo, root: str) -> bool:
        """True when ``root`` appears anywhere in the (named) base chain."""
        if info.name == root:
            return True
        for base in [info] + self.ancestors(info):
            for name in base.bases:
                if name.split(".")[-1] == root:
                    return True
        return False

    def class_and_ancestors(self, info: ClassInfo) -> list[ClassInfo]:
        return [info] + self.ancestors(info)
