"""Call graph and intraprocedural def-use dataflow over ProjectIndex.

This module is the analysis substrate for the resource-safety (``RS*``)
and lock (``LK*``) rule packs.  It adds two layers on top of the
per-file :class:`~repro.analysis.project.ProjectIndex`:

* :class:`CallGraph` — a whole-program function table with resolved
  call edges.  Resolution is alias-based, the same discipline the other
  rule packs use: bare names resolve to same-module functions or
  ``from x import f`` imports, ``mod.f`` resolves through the module's
  import aliases, and ``self.m`` resolves through the class and its
  project-visible ancestors.  Dynamic dispatch falls outside the
  checked contract and simply produces no edge.

* :class:`BufferInterp` — a path-sensitive abstract interpreter for
  pool-buffer lifetimes inside one function.  It tracks which local
  names hold a live :func:`repro.native.pool.acquire` result along
  every control-flow path (branches are enumerated and merged as state
  *sets*, so a release that happens on one arm does not mask a leak on
  the other), models ``try``/``except``/``finally`` including the
  implicit exception edges out of any statement that can raise, and
  records leak, double-release, and escape events for the rules to
  report.

The interpreter understands two sanctioned ownership transfers so the
shipped tree can be clean without suppressions:

* *allocator functions* — functions whose every ``return`` is composed
  directly of ``acquire`` calls (e.g. ``_lift_temps``).  Call sites of
  an allocator become acquire sites in the caller via the call graph.
* *stage-split protocol* — functions named ``compress_stage1`` (or
  whose docstring carries a ``pool-ownership: caller`` marker) hand
  pooled buffers to their caller inside the returned state; the runtime
  sanitizer covers that hand-off dynamically.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .project import ProjectIndex, SourceModule, dotted_name

__all__ = [
    "CallGraph", "FunctionInfo", "BufferEvents", "BufferInterp",
    "pool_aliases", "is_pool_acquire", "is_pool_release",
    "release_target_names", "allocator_keys", "analyze_buffers",
    "lock_id_for_expr", "LockOrderGraph", "build_lock_graph",
    "OWNERSHIP_MARKER", "PROTOCOL_EXEMPT_NAMES",
]

#: docstring marker declaring that pooled buffers in the return value
#: transfer to the caller (documented API contract, not a suppression)
OWNERSHIP_MARKER = "pool-ownership: caller"

#: function names whose returns transfer pool ownership by repo protocol
PROTOCOL_EXEMPT_NAMES = ("compress_stage1",)

_STATE_CAP = 32


# ---------------------------------------------------------------------------
# function table + call graph
# ---------------------------------------------------------------------------

@dataclass
class FunctionInfo:
    """One function or method in the analyzed tree."""

    module: SourceModule
    qualname: str  # "func" or "Class.method"
    node: ast.FunctionDef
    cls: str | None = None

    @property
    def key(self) -> str:
        return f"{self.module.rel}:{self.qualname}"

    @property
    def name(self) -> str:
        return self.qualname.split(".")[-1]


class CallGraph:
    """Whole-program function table with alias-resolved call edges."""

    def __init__(self, index: ProjectIndex):
        self.index = index
        self.functions: dict[str, FunctionInfo] = {}
        #: module rel -> {local function name -> FunctionInfo}
        self._locals: dict[str, dict[str, FunctionInfo]] = {}
        #: caller key -> [(callee key, call node), ...]
        self.edges: dict[str, list[tuple[str, ast.Call]]] = {}
        self._build()

    @classmethod
    def for_index(cls, index: ProjectIndex) -> "CallGraph":
        """Build once per analyzer run; cached on the index."""
        cached = getattr(index, "_callgraph", None)
        if cached is None:
            cached = cls(index)
            index._callgraph = cached  # type: ignore[attr-defined]
        return cached

    # -- construction -----------------------------------------------------
    def _build(self) -> None:
        for module in self.index.modules:
            if module.tree is None:
                continue
            local: dict[str, FunctionInfo] = {}
            for node in module.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info = FunctionInfo(module, node.name, node)
                    self.functions[info.key] = info
                    local[node.name] = info
            for cinfo in module.classes:
                for mname, mnode in cinfo.methods.items():
                    info = FunctionInfo(module, f"{cinfo.name}.{mname}",
                                        mnode, cls=cinfo.name)
                    self.functions[info.key] = info
            self._locals[module.rel] = local
        for key, info in self.functions.items():
            callees: list[tuple[str, ast.Call]] = []
            for node in ast.walk(info.node):
                if isinstance(node, ast.Call):
                    target = self.resolve_call(info, node)
                    if target is not None:
                        callees.append((target, node))
            self.edges[key] = callees

    # -- resolution -------------------------------------------------------
    def module_for_source(self, source: str) -> SourceModule | None:
        """Map an import source string to an analyzed module.

        Relative imports are matched by path suffix: ``..native.pool``
        finds the module whose rel path ends in ``native/pool.py``.
        """
        tail = source.lstrip(".")
        if not tail:
            return None
        relpath = tail.replace(".", "/")
        for module in self.index.modules:
            stem = module.rel[:-3] if module.rel.endswith(".py") else module.rel
            if (stem == relpath or stem.endswith("/" + relpath)
                    or stem.endswith("/" + relpath + "/__init__")):
                return module
        return None

    def resolve_call(self, caller: FunctionInfo,
                     call: ast.Call) -> str | None:
        name = dotted_name(call.func)
        if not name:
            return None
        parts = name.split(".")
        module = caller.module
        if len(parts) == 1:
            local = self._locals.get(module.rel, {}).get(parts[0])
            if local is not None:
                return local.key
            source = module.alias_source(parts[0])
            if source:
                head, _, fname = source.rpartition(".")
                target = self.module_for_source(head) if head.strip(".") \
                    else None
                if target is not None:
                    hit = self._locals.get(target.rel, {}).get(fname)
                    if hit is not None:
                        return hit.key
            return None
        if parts[0] == "self" and len(parts) == 2 and caller.cls:
            cinfo = next((c for c in module.classes
                          if c.name == caller.cls), None)
            if cinfo is not None:
                for c in self.index.class_and_ancestors(cinfo):
                    if parts[1] in c.methods:
                        return f"{c.module.rel}:{c.name}.{parts[1]}"
            return None
        if len(parts) == 2:
            source = module.alias_source(parts[0])
            if source:
                target = self.module_for_source(source)
                if target is not None:
                    hit = self._locals.get(target.rel, {}).get(parts[1])
                    if hit is not None:
                        return hit.key
        return None

    def callees(self, key: str) -> list[tuple[str, ast.Call]]:
        return self.edges.get(key, [])

    def transitive_callees(self, key: str, depth: int = 4) -> set[str]:
        """Keys reachable from ``key`` in at most ``depth`` edges."""
        seen: set[str] = set()
        frontier = {key}
        for _ in range(depth):
            nxt: set[str] = set()
            for k in frontier:
                for callee, _node in self.callees(k):
                    if callee not in seen:
                        seen.add(callee)
                        nxt.add(callee)
            if not nxt:
                break
            frontier = nxt
        return seen


# ---------------------------------------------------------------------------
# pool call recognition
# ---------------------------------------------------------------------------

def _is_pool_source(source: str) -> bool:
    tail = source.lstrip(".")
    return tail == "pool" or tail.endswith("native.pool")


def pool_aliases(module: SourceModule) -> set[str]:
    """Import aliases in ``module`` bound to :mod:`repro.native.pool`."""
    return {alias for alias, source in module.import_sources.items()
            if _is_pool_source(source)}


def _pool_method_call(call: ast.Call, module: SourceModule,
                      method: str) -> bool:
    name = dotted_name(call.func)
    if not name:
        return False
    parts = name.split(".")
    if len(parts) == 2 and parts[1] == method:
        return parts[0] in pool_aliases(module)
    if len(parts) == 1:
        source = module.alias_source(parts[0])
        head, _, fname = source.rpartition(".")
        return fname == method and _is_pool_source(head)
    return False


def is_pool_acquire(call: ast.Call, module: SourceModule) -> bool:
    return _pool_method_call(call, module, "acquire")


def is_pool_release(call: ast.Call, module: SourceModule) -> bool:
    return _pool_method_call(call, module, "release")


def release_target_names(call: ast.Call) -> list[str]:
    """Local names released by a ``pool.release(...)`` call.

    ``release(a, b)`` names a and b; ``release(*bufs)`` names bufs (the
    whole collection handle).  Non-name arguments are untracked.
    """
    names: list[str] = []
    for arg in call.args:
        if isinstance(arg, ast.Starred):
            arg = arg.value
        if isinstance(arg, ast.Name):
            names.append(arg.id)
    return names


def _returns_only_acquires(info: FunctionInfo) -> bool:
    """True for allocator functions: every return is built from acquires."""
    module = info.module

    def built_from_acquires(value: ast.AST | None) -> bool:
        if isinstance(value, ast.Call):
            return is_pool_acquire(value, module)
        if isinstance(value, (ast.Tuple, ast.List)):
            return bool(value.elts) and all(built_from_acquires(e)
                                            for e in value.elts)
        if isinstance(value, (ast.ListComp, ast.GeneratorExp)):
            return built_from_acquires(value.elt)
        return False

    returns = [n for n in ast.walk(info.node) if isinstance(n, ast.Return)]
    return bool(returns) and all(built_from_acquires(r.value)
                                 for r in returns)


def allocator_keys(graph: CallGraph) -> set[str]:
    """Function keys acting as pool allocators, cached on the graph."""
    cached = getattr(graph, "_allocators", None)
    if cached is None:
        cached = {key for key, info in graph.functions.items()
                  if _returns_only_acquires(info)}
        graph._allocators = cached  # type: ignore[attr-defined]
    return cached


def ownership_transfers_to_caller(info: FunctionInfo) -> bool:
    """True when returned pooled buffers transfer by documented protocol."""
    if info.name in PROTOCOL_EXEMPT_NAMES:
        return True
    doc = ast.get_docstring(info.node) or ""
    return OWNERSHIP_MARKER in doc


_VIEW_METHODS = ("reshape", "view", "ravel")


def param_returners(graph: CallGraph) -> dict[str, int]:
    """Functions whose every return is (a view of) one parameter.

    Maps function key -> the parameter index returned, so call sites
    like ``kept = _rounding_rshift(blocks, shifts)`` alias the result to
    the in-place-modified argument.  Cached on the graph.
    """
    cached = getattr(graph, "_param_returners", None)
    if cached is not None:
        return cached
    out: dict[str, int] = {}
    for key, info in graph.functions.items():
        params = [a.arg for a in info.node.args.args]
        returns = [n for n in ast.walk(info.node)
                   if isinstance(n, ast.Return)]
        idxs: set[int] = set()
        ok = bool(returns) and bool(params)
        for ret in returns:
            value = ret.value
            name = None
            if isinstance(value, ast.Name):
                name = value.id
            elif (isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Attribute)
                    and value.func.attr in _VIEW_METHODS
                    and isinstance(value.func.value, ast.Name)):
                name = value.func.value.id
            if name is not None and name in params:
                idxs.add(params.index(name))
            else:
                ok = False
                break
        if ok and len(idxs) == 1:
            out[key] = idxs.pop()
    graph._param_returners = out  # type: ignore[attr-defined]
    return out


# ---------------------------------------------------------------------------
# path-sensitive buffer lifetime interpreter
# ---------------------------------------------------------------------------

#: one abstract path state: (held alias groups, released names).  Each
#: group is a frozenset of local names all viewing one pooled buffer
#: (``codes = quantize_uniform(values, step, out=pooled)`` puts codes
#: and pooled in one group); releasing any member frees the whole group.
_State = tuple[frozenset, frozenset]


def _group_of(groups: frozenset, name: str) -> frozenset | None:
    for group in groups:
        if name in group:
            return group
    return None


def _held_names(groups: frozenset) -> set[str]:
    return {name for group in groups for name in group}


@dataclass
class BufferEvents:
    """What the interpreter observed in one function."""

    #: (name, kind, report node); kind in return/end/exception/rebind
    leaks: list[tuple[str, str, ast.AST]] = field(default_factory=list)
    #: (name, release node)
    double_releases: list[tuple[str, ast.AST]] = field(default_factory=list)
    #: (name, kind, node); kind in return/attribute
    escapes: list[tuple[str, str, ast.AST]] = field(default_factory=list)
    #: name -> acquire statement node
    acquire_nodes: dict[str, ast.AST] = field(default_factory=dict)

    _leak_seen: set = field(default_factory=set)
    _dr_seen: set = field(default_factory=set)
    _esc_seen: set = field(default_factory=set)

    def leak(self, name: str, kind: str, node: ast.AST) -> None:
        if (name, kind) not in self._leak_seen:
            self._leak_seen.add((name, kind))
            self.leaks.append((name, kind, node))

    def double_release(self, name: str, node: ast.AST) -> None:
        key = (name, getattr(node, "lineno", 0))
        if key not in self._dr_seen:
            self._dr_seen.add(key)
            self.double_releases.append((name, node))

    def escape(self, name: str, kind: str, node: ast.AST) -> None:
        key = (name, kind, getattr(node, "lineno", 0))
        if key not in self._esc_seen:
            self._esc_seen.add(key)
            self.escapes.append((name, kind, node))


def _dedupe(states: list[_State]) -> list[_State]:
    return list(dict.fromkeys(states))[:_STATE_CAP]


def _calls_in(node: ast.AST):
    """Calls within ``node``, excluding nested function bodies."""
    stack = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, ast.Call):
            yield cur
        for child in ast.iter_child_nodes(cur):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            stack.append(child)


def _contains_call(node: ast.AST) -> bool:
    """True when ``node`` contains a call outside nested function bodies."""
    return next(iter(_calls_in(node)), None) is not None


def _names_in(node: ast.AST | None) -> set[str]:
    if node is None:
        return set()
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


class BufferInterp:
    """Abstract interpreter tracking pooled-buffer lifetimes in one fn.

    The state space is a set of (held, released) name-set pairs, one per
    enumerated control-flow path (bounded by a small cap).  Exceptions
    are modeled pessimistically: every statement containing a call (plus
    ``raise``/``assert``) is a potential exception edge, and the edge is
    only benign when every enclosing ``finally`` (walked outward through
    the ``try`` nesting) releases all held buffers, or an enclosing
    handler exists to consume the exception.
    """

    def __init__(self, info: FunctionInfo, graph: CallGraph):
        self.info = info
        self.module = info.module
        self.graph = graph
        self.allocators = allocator_keys(graph)
        self.events = BufferEvents()
        self.transfers = ownership_transfers_to_caller(info)
        #: finalbodies of the enclosing ``try`` statements, outermost first
        self._finally_stack: list[list[ast.stmt]] = []

    # -- call classification ---------------------------------------------
    def _value_acquires(self, value: ast.AST | None) -> bool:
        """True when evaluating ``value`` hands us a fresh pool buffer."""
        if value is None:
            return False
        for node in ast.walk(value):
            if not isinstance(node, ast.Call):
                continue
            if is_pool_acquire(node, self.module):
                return True
            target = self.graph.resolve_call(self.info, node)
            if target is not None and target in self.allocators:
                return True
        return False

    def _release_names(self, stmt: ast.stmt) -> list[str] | None:
        """Names released when ``stmt`` is a bare pool.release(...) call."""
        if (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
                and is_pool_release(stmt.value, self.module)):
            return release_target_names(stmt.value)
        return None

    def _can_raise(self, stmt: ast.AST) -> bool:
        if isinstance(stmt, (ast.Raise, ast.Assert)):
            return True
        if self._release_names(stmt) is not None:
            return False  # pool.release never raises by contract
        # pool acquire / allocator calls are non-raising primitives of
        # the checked contract: `a = acquire(); b = acquire()` before a
        # try/finally is a sanctioned shape, not an exception edge.
        # Observability calls (trace spans, metrics, logging) share
        # that contract — the hot-path design already assumes they are
        # skippable, so they must not raise.
        from .visitor import classify_observability_call
        for node in _calls_in(stmt):
            if is_pool_acquire(node, self.module) \
                    or is_pool_release(node, self.module):
                continue
            if classify_observability_call(node, self.module) is not None:
                continue
            target = self.graph.resolve_call(self.info, node)
            if target is not None and target in self.allocators:
                continue
            return True
        return False

    # -- driver -----------------------------------------------------------
    def run(self) -> BufferEvents:
        def top_sink(state: _State, node: ast.AST) -> None:
            held, _released = state
            for group in held:
                name = min(group)
                self.events.leak(
                    name, "exception",
                    self.events.acquire_nodes.get(name, node))

        out = self._exec_block(self.info.node.body,
                               [(frozenset(), frozenset())], top_sink)
        for held, _released in out:
            for group in held:
                name = min(group)
                self.events.leak(
                    name, "end",
                    self.events.acquire_nodes.get(name, self.info.node))
        return self.events

    # -- statement execution ----------------------------------------------
    def _exec_block(self, stmts, states, raise_sink) -> list[_State]:
        for stmt in stmts:
            if not states:
                break
            states = self._exec_stmt(stmt, states, raise_sink)
        return _dedupe(states)

    def _exec_stmt(self, stmt, states, raise_sink) -> list[_State]:
        if isinstance(stmt, ast.Try):
            return self._exec_try(stmt, states, raise_sink)
        if isinstance(stmt, ast.If):
            return self._exec_if(stmt, states, raise_sink)
        if isinstance(stmt, (ast.For, ast.While)):
            return self._exec_loop(stmt, states, raise_sink)
        if isinstance(stmt, ast.With):
            if any(self._can_raise(item.context_expr)
                   for item in stmt.items):
                for st in states:
                    raise_sink(st, stmt)
            return self._exec_block(stmt.body, states, raise_sink)
        if isinstance(stmt, ast.Return):
            self._exec_return(stmt, states)
            return []
        if isinstance(stmt, ast.Raise):
            for st in states:
                raise_sink(st, stmt)
            return []
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return states  # merged by the enclosing loop approximation
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Import, ast.ImportFrom,
                             ast.Pass, ast.Global, ast.Nonlocal)):
            return states
        # generic statement: exception edge first (state before effects)
        if self._can_raise(stmt):
            for st in states:
                raise_sink(st, stmt)
        return _dedupe([s2 for st in states
                        for s2 in self._apply_effects(stmt, st)])

    def _exec_if(self, stmt, states, raise_sink) -> list[_State]:
        if _contains_call(stmt.test):
            for st in states:
                raise_sink(st, stmt)
        refined = self._none_test(stmt.test)
        then_states: list[_State] = []
        else_states: list[_State] = []
        for st in states:
            held, _released = st
            if refined is not None:
                name, not_none = refined
                if _group_of(held, name) is not None:
                    # a held name is a live acquire result, never None:
                    # only the matching branch is feasible on this path
                    (then_states if not_none else else_states).append(st)
                    continue
            then_states.append(st)
            else_states.append(st)
        out: list[_State] = []
        if then_states:
            out.extend(self._exec_block(stmt.body, then_states, raise_sink))
        if stmt.orelse:
            if else_states:
                out.extend(self._exec_block(stmt.orelse, else_states,
                                            raise_sink))
        else:
            out.extend(else_states)
        return _dedupe(out)

    @staticmethod
    def _none_test(test: ast.AST):
        """Recognize ``X is None`` / ``X is not None`` over a local name."""
        if (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.left, ast.Name)
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value is None):
            if isinstance(test.ops[0], ast.Is):
                return test.left.id, False
            if isinstance(test.ops[0], ast.IsNot):
                return test.left.id, True
        return None

    def _exec_loop(self, stmt, states, raise_sink) -> list[_State]:
        if isinstance(stmt, ast.For) and _contains_call(stmt.iter):
            for st in states:
                raise_sink(st, stmt)
        if isinstance(stmt, ast.While) and _contains_call(stmt.test):
            for st in states:
                raise_sink(st, stmt)
        once = self._exec_block(stmt.body, states, raise_sink)
        out = _dedupe(list(states) + once)
        if stmt.orelse:
            out = self._exec_block(stmt.orelse, out, raise_sink)
        return out

    def _exec_try(self, stmt, states, raise_sink) -> list[_State]:
        body_raises: list[tuple[_State, ast.AST]] = []
        escaped: list[tuple[_State, ast.AST]] = []

        def body_sink(state: _State, node: ast.AST) -> None:
            body_raises.append((state, node))

        def escape_sink(state: _State, node: ast.AST) -> None:
            escaped.append((state, node))

        if stmt.finalbody:
            self._finally_stack.append(stmt.finalbody)
        try:
            body_out = self._exec_block(stmt.body, states, body_sink)
            if stmt.orelse:
                body_out = self._exec_block(stmt.orelse, body_out,
                                            escape_sink)
            after = list(body_out)
            if stmt.handlers:
                # optimistic: a handler may consume anything the body
                # raised — missed catches surface at runtime instead.
                # Entry states come only from actual raise events (every
                # raising statement reports its pre-state), so protected
                # prefixes (an inner try/finally) stay precise.
                entry = _dedupe([s for s, _ in body_raises])
                for handler in stmt.handlers:
                    after.extend(self._exec_block(handler.body, entry,
                                                  escape_sink))
            else:
                escaped.extend(body_raises)
        finally:
            if stmt.finalbody:
                self._finally_stack.pop()

        if stmt.finalbody:
            after = self._exec_block(stmt.finalbody, _dedupe(after),
                                     raise_sink)
            for state, node in escaped:
                for st in self._exec_block(stmt.finalbody, [state],
                                           lambda *_a: None):
                    raise_sink(st, node)
        else:
            for state, node in escaped:
                raise_sink(state, node)
        return _dedupe(after)

    def _exec_return(self, stmt: ast.Return, states) -> None:
        for held, released in states:
            value_names = self._returned_names(stmt.value, held)
            returned = frozenset(g for g in held if g & value_names)
            for group in returned:
                if not self.transfers:
                    self.events.escape(min(group & value_names),
                                       "return", stmt)
            st: list[_State] = [(held - returned, released)]
            for finalbody in reversed(self._finally_stack):
                st = self._exec_block(finalbody, st, lambda *_a: None)
            for fheld, _frel in st:
                for group in fheld:
                    name = min(group)
                    self.events.leak(
                        name, "return",
                        self.events.acquire_nodes.get(name, stmt))

    # -- effects -----------------------------------------------------------
    @staticmethod
    def _drop_name(groups: set, name: str) -> frozenset | None:
        """Remove ``name`` from its group; return the emptied group."""
        group = _group_of(frozenset(groups), name)
        if group is None:
            return None
        groups.discard(group)
        rest = group - {name}
        if rest:
            groups.add(rest)
            return None
        return group

    def _bind_acquire(self, groups: set, released: set, name: str,
                      stmt) -> None:
        if self._drop_name(groups, name) is not None:
            self.events.leak(name, "rebind", stmt)
        self.events.acquire_nodes[name] = stmt
        groups.add(frozenset({name}))
        released.discard(name)

    def _alias_sources(self, value: ast.AST | None,
                       held: frozenset) -> set[str]:
        """Held names whose buffer ``value`` evaluates to a view of.

        Recognized view shapes: a bare held name, an ``IfExp`` arm or
        subscript slice of one, a call with a held name as ``out=`` (the
        numpy ufunc convention returns out), view-returning methods on a
        held receiver (reshape/view/ravel), and calls to functions the
        call graph knows return one of their parameters in place.
        """
        names = _held_names(held)
        out: set[str] = set()
        if isinstance(value, ast.Name) and value.id in names:
            out.add(value.id)
        elif isinstance(value, ast.IfExp):
            out |= self._alias_sources(value.body, held)
            out |= self._alias_sources(value.orelse, held)
        elif isinstance(value, ast.Subscript):
            out |= self._alias_sources(value.value, held)
        elif isinstance(value, ast.Call):
            for kw in value.keywords:
                if (kw.arg == "out" and isinstance(kw.value, ast.Name)
                        and kw.value.id in names):
                    out.add(kw.value.id)
            func = value.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in _VIEW_METHODS
                    and isinstance(func.value, ast.Name)
                    and func.value.id in names):
                out.add(func.value.id)
            target = self.graph.resolve_call(self.info, value)
            if target is not None:
                idx = param_returners(self.graph).get(target)
                if idx is not None:
                    params = [a.arg for a in
                              self.graph.functions[target].node.args.args]
                    arg: ast.AST | None = None
                    if idx < len(value.args):
                        arg = value.args[idx]
                    else:
                        arg = next((kw.value for kw in value.keywords
                                    if kw.arg == params[idx]), None)
                    if isinstance(arg, ast.Name) and arg.id in names:
                        out.add(arg.id)
        return out

    def _returned_names(self, value: ast.AST | None,
                        held: frozenset) -> set[str]:
        """Held names whose buffer the return value actually exposes.

        Unlike a raw name walk, names used only as call *arguments*
        (``return f(buf)``) do not escape — the call's result does."""
        names = _held_names(held)
        out: set[str] = set()

        def walk(v: ast.AST | None) -> None:
            if v is None:
                return
            if isinstance(v, ast.Name):
                if v.id in names:
                    out.add(v.id)
            elif isinstance(v, (ast.Tuple, ast.List, ast.Set)):
                for elt in v.elts:
                    walk(elt)
            elif isinstance(v, ast.Dict):
                for elt in v.values:
                    walk(elt)
            elif isinstance(v, ast.Starred):
                walk(v.value)
            elif isinstance(v, ast.IfExp):
                walk(v.body)
                walk(v.orelse)
            elif isinstance(v, ast.Subscript):
                walk(v.value)
            elif isinstance(v, ast.Call):
                out.update(self._alias_sources(v, held))

        walk(value)
        return out

    def _apply_effects(self, stmt, state: _State) -> list[_State]:
        held, released = state
        rel_names = self._release_names(stmt)
        if rel_names is not None:
            groups, new_rel = set(held), set(released)
            for name in rel_names:
                group = _group_of(frozenset(groups), name)
                if group is not None:
                    groups.discard(group)
                    new_rel |= group
                elif name in new_rel:
                    self.events.double_release(name, stmt)
            return [(frozenset(groups), frozenset(new_rel))]

        targets: list[ast.AST] = []
        value: ast.AST | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if not targets:
            return [state]

        groups, new_rel = set(held), set(released)
        acquires = self._value_acquires(value)
        aliases = self._alias_sources(value, held)
        value_names = _names_in(value)
        for target in targets:
            if isinstance(target, ast.Name):
                name = target.id
                if acquires:
                    self._bind_acquire(groups, new_rel, name, stmt)
                elif aliases:
                    # join the target into the viewed buffer's group
                    if name not in aliases:
                        self._drop_name(groups, name)
                        src_group = _group_of(frozenset(groups),
                                              next(iter(aliases)))
                        if src_group is not None:
                            groups.discard(src_group)
                            groups.add(src_group | {name})
                elif name not in value_names:
                    # held name rebound to unrelated value: handle lost
                    if self._drop_name(groups, name) is not None:
                        self.events.leak(name, "rebind", stmt)
            elif isinstance(target, ast.Attribute):
                for group in list(groups):
                    hit = group & value_names
                    if hit:
                        self.events.escape(min(hit), "attribute", target)
                        groups.discard(group)  # ownership moved on
            elif isinstance(target, (ast.Tuple, ast.List)) and acquires:
                # a, b = acquire(...), acquire(...)
                if isinstance(value, (ast.Tuple, ast.List)) \
                        and len(target.elts) == len(value.elts):
                    for telt, velt in zip(target.elts, value.elts):
                        if (isinstance(telt, ast.Name)
                                and self._value_acquires(velt)):
                            self._bind_acquire(groups, new_rel,
                                               telt.id, stmt)
        return [(frozenset(groups), frozenset(new_rel))]


def analyze_buffers(info: FunctionInfo, graph: CallGraph) -> BufferEvents:
    """Run the lifetime interpreter over one function."""
    return BufferInterp(info, graph).run()


# ---------------------------------------------------------------------------
# lock identity + whole-program lock-order graph
# ---------------------------------------------------------------------------

def _looks_like_lock(name: str) -> bool:
    return "lock" in name.split(".")[-1].lower()


def lock_id_for_expr(expr: ast.AST, info: FunctionInfo,
                     graph: CallGraph) -> str | None:
    """Stable identity for a lock expression, or None.

    ``self._lock`` identifies per class (all instances merge — the same
    approximation the runtime sanitizer documents); module-level locks
    identify per defining module, following import aliases.
    """
    name = dotted_name(expr)
    if not name or not _looks_like_lock(name):
        return None
    parts = name.split(".")
    module = info.module
    if parts[0] == "self" and len(parts) == 2:
        cls = info.cls or "<module>"
        return f"{module.rel}:{cls}.{parts[1]}"
    if len(parts) == 1:
        source = module.alias_source(parts[0])
        if source:
            head, _, lname = source.rpartition(".")
            target = graph.module_for_source(head) if head.strip(".") \
                else None
            if target is not None:
                return f"{target.rel}:{lname}"
        return f"{module.rel}:{parts[0]}"
    if len(parts) == 2:
        source = module.alias_source(parts[0])
        target = graph.module_for_source(source) if source else None
        if target is not None:
            return f"{target.rel}:{parts[1]}"
    return f"{module.rel}:{name}"


@dataclass
class LockEdge:
    """Observed static order: ``first`` held while ``second`` acquired."""

    first: str
    second: str
    module: SourceModule
    node: ast.AST  # the inner acquisition (or call) site
    via: str  # human-readable provenance


class LockOrderGraph:
    """Whole-program static lock-order graph with cycle detection."""

    def __init__(self) -> None:
        self.edges: list[LockEdge] = []
        self._adj: dict[str, set[str]] = {}

    def add(self, edge: LockEdge) -> None:
        if edge.first == edge.second:
            return
        self.edges.append(edge)
        self._adj.setdefault(edge.first, set()).add(edge.second)

    def _reach(self, start: str) -> set[str]:
        seen: set[str] = set()
        frontier = [start]
        while frontier:
            cur = frontier.pop()
            for nxt in self._adj.get(cur, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    def cyclic_edges(self) -> list[LockEdge]:
        """Edges participating in at least one order cycle."""
        out = []
        for edge in self.edges:
            if edge.first in self._reach(edge.second):
                out.append(edge)
        return out


def _with_lock_regions(info: FunctionInfo, graph: CallGraph):
    """(lock id, with node, body) for each ``with <lock>:`` in the fn."""
    regions = []
    for node in ast.walk(info.node):
        if not isinstance(node, ast.With):
            continue
        for item in node.items:
            lock = lock_id_for_expr(item.context_expr, info, graph)
            if lock is not None:
                regions.append((lock, node, node.body))
    return regions


def locks_acquired_in(key: str, graph: CallGraph,
                      depth: int = 3) -> set[str]:
    """Lock ids acquired by ``key`` or its transitive callees."""
    locks: set[str] = set()
    for k in {key} | graph.transitive_callees(key, depth=depth):
        info = graph.functions.get(k)
        if info is None:
            continue
        for lock, _node, _body in _with_lock_regions(info, graph):
            locks.add(lock)
    return locks


def build_lock_graph(index: ProjectIndex) -> LockOrderGraph:
    """Build (and cache) the whole-program static lock-order graph."""
    cached = getattr(index, "_lock_graph", None)
    if cached is not None:
        return cached
    graph = CallGraph.for_index(index)
    order = LockOrderGraph()
    for key, info in graph.functions.items():
        for lock, node, body in _with_lock_regions(info, graph):
            for sub in body:
                for inner in ast.walk(sub):
                    # direct nesting: with A: ... with B:
                    if isinstance(inner, ast.With):
                        for item in inner.items:
                            blk = lock_id_for_expr(item.context_expr,
                                                   info, graph)
                            if blk is not None:
                                order.add(LockEdge(
                                    lock, blk, info.module, inner,
                                    via=f"nested in {info.qualname}"))
                    # indirect: a call made while A is held reaches B
                    elif isinstance(inner, ast.Call):
                        target = graph.resolve_call(info, inner)
                        if target is None:
                            continue
                        for blk in locks_acquired_in(target, graph):
                            order.add(LockEdge(
                                lock, blk, info.module, inner,
                                via=(f"{info.qualname} -> "
                                     f"{graph.functions[target].qualname}"
                                     if target in graph.functions
                                     else info.qualname)))
    index._lock_graph = order  # type: ignore[attr-defined]
    return order
