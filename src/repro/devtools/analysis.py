"""Dataflow analyses behind the RP007, RP008 and RP011 rules.

Everything here is *derived* from the :class:`~repro.devtools.index.RepoIndex`
a rule pass already holds:

* :func:`build_cfg` — a statement-granularity control-flow graph per
  function (If/While/For/Try/With/Match, break/continue, virtual entry,
  normal-exit and raise-exit nodes);
* :func:`build_call_graph` — a repo-wide call graph with relative- and
  absolute-import resolution (``from ..core.errors import X`` resolves
  to the indexed module), plus per-function raise/call summaries;
* :func:`class_hierarchy` / :func:`exception_ancestors` — exception
  subtyping over repo-defined classes and the builtin hierarchy;
* :func:`exception_propagation` — the fixpoint "which exception types
  can escape this function", with ``try/except`` masking (a handler
  that swallows a type removes it; a handler containing a bare
  ``raise`` does not).

Deliberate approximations (the rules are linters, not verifiers):
bindings created by walrus expressions are ignored; a ``return`` under
``try/finally`` is routed through the innermost ``finally`` only;
exception edges into handlers start at the ``try`` statement, which
keeps "resource acquired inside the protected body" from reaching a
handler it cannot reach with the resource bound; calls through
variables of unknown type resolve to nothing; raises of non-name
expressions (``raise make_error()``) are skipped.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .index import ModuleInfo, RepoIndex

__all__ = [
    "CFG",
    "build_cfg",
    "FunctionInfo",
    "CallGraph",
    "build_call_graph",
    "class_hierarchy",
    "exception_ancestors",
    "RaiseSite",
    "exception_propagation",
]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

_TRY_TYPES: Tuple[type, ...] = (
    (ast.Try, ast.TryStar) if hasattr(ast, "TryStar") else (ast.Try,)
)
_LOOP_TYPES = (ast.While, ast.For, ast.AsyncFor)
_FUNC_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef)


# --------------------------------------------------------------------- #
# control-flow graphs
# --------------------------------------------------------------------- #


@dataclass
class CFG:
    """A statement-level control-flow graph for one function.

    Node ids index :attr:`stmts`; ``stmts[ENTRY]``, ``stmts[EXIT]`` and
    ``stmts[RAISE_EXIT]`` are ``None`` (virtual nodes).  ``EXIT`` is the
    *normal* function exit (fall-through or ``return``); statements that
    raise lead to ``RAISE_EXIT`` instead, so path rules can reason about
    normal control flow without modelling unwinding.
    """

    func: FunctionNode
    stmts: List[Optional[ast.stmt]]
    succ: List[Set[int]]

    ENTRY: int = 0
    EXIT: int = 1
    RAISE_EXIT: int = 2

    def nodes_for(self, stmt: ast.stmt) -> List[int]:
        return [i for i, s in enumerate(self.stmts) if s is stmt]


class _CFGBuilder:
    def __init__(self, func: FunctionNode) -> None:
        self.func = func
        self.stmts: List[Optional[ast.stmt]] = [None, None, None]
        self.succ: List[Set[int]] = [set(), set(), set()]
        # (loop-head node, break-node accumulator) innermost-last
        self.loops: List[Tuple[int, List[int]]] = []
        # abrupt exits pending for the innermost try/finally frame
        self.finally_frames: List[List[Tuple[str, int]]] = []

    def node(self, stmt: ast.stmt) -> int:
        self.stmts.append(stmt)
        self.succ.append(set())
        return len(self.stmts) - 1

    def edge(self, a: int, b: int) -> None:
        self.succ[a].add(b)

    def build(self) -> CFG:
        out = self.block(self.func.body, {CFG.ENTRY})
        for nid in out:
            self.edge(nid, CFG.EXIT)
        return CFG(func=self.func, stmts=self.stmts, succ=self.succ)

    def block(self, body: Sequence[ast.stmt], preds: Set[int]) -> Set[int]:
        for stmt in body:
            nid = self.node(stmt)
            for p in preds:
                self.edge(p, nid)
            preds = self._out(stmt, nid)
        return preds

    def _abrupt(self, kind: str, nid: int, fallback: Optional[int]) -> None:
        """Route return/raise through the innermost finally if present."""
        if self.finally_frames:
            self.finally_frames[-1].append((kind, nid))
        elif fallback is not None:
            self.edge(nid, fallback)

    def _out(self, stmt: ast.stmt, nid: int) -> Set[int]:
        if isinstance(stmt, ast.If):
            then_out = self.block(stmt.body, {nid})
            else_out = self.block(stmt.orelse, {nid}) if stmt.orelse else {nid}
            return then_out | else_out

        if isinstance(stmt, _LOOP_TYPES):
            breaks: List[int] = []
            self.loops.append((nid, breaks))
            body_out = self.block(stmt.body, {nid})
            self.loops.pop()
            for p in body_out:
                self.edge(p, nid)  # back edge
            out: Set[int] = set(breaks)
            infinite = (
                isinstance(stmt, ast.While)
                and isinstance(stmt.test, ast.Constant)
                and bool(stmt.test.value)
            )
            if not infinite:
                # loop test can fail on entry or any iteration
                if stmt.orelse:
                    out |= self.block(stmt.orelse, {nid})
                else:
                    out.add(nid)
            return out

        if isinstance(stmt, _TRY_TYPES):
            frame: List[Tuple[str, int]] = []
            if stmt.finalbody:
                self.finally_frames.append(frame)
            body_out = self.block(stmt.body, {nid})
            outs: Set[int] = set()
            for handler in stmt.handlers:
                outs |= self.block(handler.body, {nid})
            if stmt.orelse:
                outs |= self.block(stmt.orelse, set(body_out))
            else:
                outs |= body_out
            if stmt.finalbody:
                self.finally_frames.pop()
                abrupt = {n for _, n in frame}
                fin_out = self.block(stmt.finalbody, outs | abrupt)
                # after the finally, abrupt paths resume their exit; the
                # statement-level graph over-approximates by letting the
                # merged finally exit take every pending route
                kinds = {k for k, _ in frame}
                for fid in fin_out:
                    if "return" in kinds:
                        self.edge(fid, CFG.EXIT)
                    if "raise" in kinds:
                        self.edge(fid, CFG.RAISE_EXIT)
                return fin_out
            return outs

        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self.block(stmt.body, {nid})

        if isinstance(stmt, ast.Match):
            out = {nid}  # no case may match
            for case in stmt.cases:
                out |= self.block(case.body, {nid})
            return out

        if isinstance(stmt, ast.Return):
            self._abrupt("return", nid, CFG.EXIT)
            return set()

        if isinstance(stmt, ast.Raise):
            self._abrupt("raise", nid, CFG.RAISE_EXIT)
            return set()

        if isinstance(stmt, ast.Break):
            if self.loops:
                self.loops[-1][1].append(nid)
            return set()

        if isinstance(stmt, ast.Continue):
            if self.loops:
                self.edge(nid, self.loops[-1][0])
            return set()

        # nested defs / classes, simple statements: straight-line nodes
        return {nid}


def build_cfg(func: FunctionNode) -> CFG:
    """The statement-level CFG of ``func``.

    Only the ``try`` statement itself has edges to its handlers, not
    every statement of the protected body.
    """
    return _CFGBuilder(func).build()


# --------------------------------------------------------------------- #
# statement bindings and header expressions
# --------------------------------------------------------------------- #

_COMPOUND_TYPES = _TRY_TYPES + _LOOP_TYPES + (
    ast.If,
    ast.With,
    ast.AsyncWith,
    ast.Match,
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
)


def _target_names(target: ast.expr) -> Iterator[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _target_names(elt)
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)


def stmt_bindings(stmt: ast.stmt) -> Set[str]:
    """Plain names this statement (header) binds — its GEN set."""
    names: Set[str] = set()
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            names.update(_target_names(target))
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        names.update(_target_names(stmt.target))
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        names.update(_target_names(stmt.target))
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if item.optional_vars is not None:
                names.update(_target_names(item.optional_vars))
    elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
        for alias in stmt.names:
            names.add(alias.asname or alias.name.split(".")[0])
    elif isinstance(stmt, (*_FUNC_TYPES, ast.ClassDef)):
        names.add(stmt.name)
    return names


def _header_exprs(stmt: ast.stmt) -> List[ast.expr]:
    """The expressions evaluated *at* a statement's own CFG node."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    if isinstance(stmt, _TRY_TYPES + (*_FUNC_TYPES, ast.ClassDef)):
        return []
    # simple statement: everything it contains evaluates here
    return [child for child in ast.iter_child_nodes(stmt)
            if isinstance(child, ast.expr)]


# --------------------------------------------------------------------- #
# the repo-wide call graph
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class FunctionInfo:
    """One module-level function or method, addressable repo-wide."""

    qualname: str  # "<module rel>::<qual>"
    rel: str
    qual: str  # "func" or "Class.method"
    node: FunctionNode


@dataclass(frozen=True)
class RaiseSite:
    """Where an exception type originates (for findings and messages)."""

    exc: str
    path: str
    line: int


@dataclass
class _FnSummary:
    # (exception leaf name, line, enclosing swallow masks)
    raises: List[Tuple[str, int, Tuple[FrozenSet[str], ...]]] = field(
        default_factory=list
    )
    # (callee qualname, enclosing swallow masks)
    calls: List[Tuple[str, Tuple[FrozenSet[str], ...]]] = field(
        default_factory=list
    )


@dataclass
class CallGraph:
    functions: Dict[str, FunctionInfo]
    summaries: Dict[str, _FnSummary]

    @property
    def calls(self) -> Dict[str, Set[str]]:
        return {
            qn: {callee for callee, _ in summ.calls}
            for qn, summ in self.summaries.items()
        }


def _module_parts(rel: str) -> List[str]:
    """``src/repro/solvers/kernel.py`` -> ``["repro", "solvers", "kernel"]``."""
    parts = rel.split("/")
    if parts and parts[0] in ("src", "lib"):
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return parts


def _module_rel_for(parts: Sequence[str], index: RepoIndex) -> Optional[str]:
    """The indexed rel path of a dotted module, trying src/ and plain roots."""
    for prefix in ("src/", ""):
        base = prefix + "/".join(parts)
        for suffix in (".py", "/__init__.py"):
            rel = base + suffix
            if index.module(rel) is not None:
                return rel
    return None


def _import_map(
    module: ModuleInfo, index: RepoIndex
) -> Dict[str, Tuple[str, Optional[str]]]:
    """Local name -> (target module rel, symbol or None for a module alias)."""
    assert module.tree is not None
    out: Dict[str, Tuple[str, Optional[str]]] = {}
    parts = _module_parts(module.rel)
    is_package = module.rel.endswith("__init__.py")
    pkg = parts if is_package else parts[:-1]
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                rel = _module_rel_for(alias.name.split("."), index)
                if rel is not None and alias.asname is not None:
                    out[alias.asname] = (rel, None)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = pkg[: len(pkg) - (node.level - 1)] if node.level > 1 else pkg
            else:
                base = []
            base = list(base) + (node.module.split(".") if node.module else [])
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                submodule = _module_rel_for([*base, alias.name], index)
                if submodule is not None:
                    out[local] = (submodule, None)
                    continue
                rel = _module_rel_for(base, index)
                if rel is not None:
                    out[local] = (rel, alias.name)
    return out


class _Resolver:
    """Resolve a call expression to a repo-wide function qualname."""

    def __init__(
        self,
        module: ModuleInfo,
        index: RepoIndex,
        functions: Dict[str, FunctionInfo],
        imports: Dict[str, Tuple[str, Optional[str]]],
    ) -> None:
        self.module = module
        self.index = index
        self.functions = functions
        self.imports = imports

    def _in_module(self, rel: str, name: str) -> Optional[str]:
        direct = f"{rel}::{name}"
        if direct in self.functions:
            return direct
        init = f"{rel}::{name}.__init__"  # class instantiation
        if init in self.functions:
            return init
        return None

    def resolve(self, call: ast.Call, class_ctx: Optional[str]) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            local = self._in_module(self.module.rel, func.id)
            if local is not None:
                return local
            target = self.imports.get(func.id)
            if target is not None and target[1] is not None:
                return self._in_module(target[0], target[1])
            return None
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            base = func.value.id
            if base == "self" and class_ctx is not None:
                method = f"{self.module.rel}::{class_ctx}.{func.attr}"
                if method in self.functions:
                    return method
                return None
            target = self.imports.get(base)
            if target is not None and target[1] is None:
                return self._in_module(target[0], func.attr)
        return None


def _exc_leaf(expr: Optional[ast.expr]) -> Optional[str]:
    """``raise X(...)`` / ``raise a.X`` -> ``"X"``; None when unnameable."""
    if expr is None:
        return None
    if isinstance(expr, ast.Call):
        expr = expr.func
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


def _handler_types(handler: ast.excepthandler) -> FrozenSet[str]:
    if handler.type is None:
        return frozenset({"*"})
    types: Set[str] = set()
    nodes = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for node in nodes:
        leaf = _exc_leaf(node)
        if leaf is not None:
            types.add(leaf)
    return frozenset(types)


def _swallow_set(stmt: ast.stmt) -> FrozenSet[str]:
    """Types the handlers of a ``try`` absorb (bare re-raisers excluded)."""
    caught: Set[str] = set()
    for handler in getattr(stmt, "handlers", []):
        reraises = any(
            isinstance(n, ast.Raise) and n.exc is None
            for n in ast.walk(handler)
        )
        if not reraises:
            caught |= _handler_types(handler)
    return frozenset(caught)


def _summarize(
    fn: FunctionNode, resolver: _Resolver, class_ctx: Optional[str]
) -> _FnSummary:
    summary = _FnSummary()

    def record_calls(
        root: ast.AST, masks: Tuple[FrozenSet[str], ...]
    ) -> None:
        for node in ast.walk(root):
            if isinstance(node, ast.Call):
                callee = resolver.resolve(node, class_ctx)
                if callee is not None:
                    summary.calls.append((callee, masks))

    def visit(
        body: Sequence[ast.stmt],
        masks: Tuple[FrozenSet[str], ...],
    ) -> None:
        for stmt in body:
            if isinstance(stmt, _TRY_TYPES):
                swallow = _swallow_set(stmt)
                inner = (*masks, swallow) if swallow else masks
                visit(stmt.body, inner)
                for handler in stmt.handlers:  # type: ignore[attr-defined]
                    visit(handler.body, masks)
                visit(stmt.orelse, masks)  # type: ignore[attr-defined]
                visit(stmt.finalbody, masks)  # type: ignore[attr-defined]
            elif isinstance(stmt, ast.Raise):
                # a bare ``raise`` re-raises what the body already threw:
                # the non-masking of its handler models that, so only
                # explicit raises seed new types
                if stmt.exc is not None:
                    leaf = _exc_leaf(stmt.exc)
                    if leaf is not None:
                        summary.raises.append((leaf, stmt.lineno, masks))
                    record_calls(stmt, masks)
            elif isinstance(stmt, _FUNC_TYPES):
                # a nested function's effects are attributed to the
                # encloser (it cannot be called from anywhere else)
                visit(stmt.body, masks)
            elif isinstance(stmt, ast.ClassDef):
                continue
            elif isinstance(stmt, _COMPOUND_TYPES):
                for expr in _header_exprs(stmt):
                    record_calls(expr, masks)
                for name in ("body", "orelse", "cases"):
                    sub_body = getattr(stmt, name, None)
                    if name == "cases" and sub_body is not None:
                        for case in sub_body:
                            visit(case.body, masks)
                    elif sub_body:
                        visit(sub_body, masks)
            else:
                record_calls(stmt, masks)

    visit(fn.body, ())
    return summary


def build_call_graph(index: RepoIndex) -> CallGraph:
    """Module-level functions and methods, with per-function summaries."""
    functions: Dict[str, FunctionInfo] = {}
    for module in index.modules():
        if module.tree is None:
            continue
        for node in module.tree.body:
            if isinstance(node, _FUNC_TYPES):
                qual = node.name
                functions[f"{module.rel}::{qual}"] = FunctionInfo(
                    qualname=f"{module.rel}::{qual}",
                    rel=module.rel,
                    qual=qual,
                    node=node,
                )
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, _FUNC_TYPES):
                        qual = f"{node.name}.{sub.name}"
                        functions[f"{module.rel}::{qual}"] = FunctionInfo(
                            qualname=f"{module.rel}::{qual}",
                            rel=module.rel,
                            qual=qual,
                            node=sub,
                        )

    summaries: Dict[str, _FnSummary] = {}
    for module in index.modules():
        if module.tree is None:
            continue
        imports = _import_map(module, index)
        resolver = _Resolver(module, index, functions, imports)
        for qualname, info in functions.items():
            if info.rel != module.rel:
                continue
            class_ctx = (
                info.qual.split(".", 1)[0] if "." in info.qual else None
            )
            summaries[qualname] = _summarize(info.node, resolver, class_ctx)
    return CallGraph(functions=functions, summaries=summaries)


# --------------------------------------------------------------------- #
# exception hierarchy + propagation
# --------------------------------------------------------------------- #

#: builtin exception DAG fragment (leaf name -> direct bases)
_BUILTIN_EXC_BASES: Dict[str, Tuple[str, ...]] = {
    "Exception": ("BaseException",),
    "BaseException": (),
    "KeyboardInterrupt": ("BaseException",),
    "SystemExit": ("BaseException",),
    "GeneratorExit": ("BaseException",),
    "StopIteration": ("Exception",),
    "ArithmeticError": ("Exception",),
    "ZeroDivisionError": ("ArithmeticError",),
    "OverflowError": ("ArithmeticError",),
    "AssertionError": ("Exception",),
    "AttributeError": ("Exception",),
    "EOFError": ("Exception",),
    "ImportError": ("Exception",),
    "ModuleNotFoundError": ("ImportError",),
    "LookupError": ("Exception",),
    "IndexError": ("LookupError",),
    "KeyError": ("LookupError",),
    "MemoryError": ("Exception",),
    "NameError": ("Exception",),
    "OSError": ("Exception",),
    "FileExistsError": ("OSError",),
    "FileNotFoundError": ("OSError",),
    "TimeoutError": ("OSError",),
    "ConnectionError": ("OSError",),
    "BrokenPipeError": ("ConnectionError",),
    "ConnectionResetError": ("ConnectionError",),
    "ReferenceError": ("Exception",),
    "RuntimeError": ("Exception",),
    "NotImplementedError": ("RuntimeError",),
    "RecursionError": ("RuntimeError",),
    "SyntaxError": ("Exception",),
    "SystemError": ("Exception",),
    "TypeError": ("Exception",),
    "ValueError": ("Exception",),
    "UnicodeDecodeError": ("ValueError",),
    "UnicodeEncodeError": ("ValueError",),
}


def class_hierarchy(index: RepoIndex) -> Dict[str, Tuple[str, ...]]:
    """Leaf class name -> direct base leaf names (repo classes + builtins)."""
    bases: Dict[str, Tuple[str, ...]] = dict(_BUILTIN_EXC_BASES)
    for module in index.modules():
        if module.tree is None:
            continue
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                names = tuple(
                    leaf
                    for base in node.bases
                    if (leaf := _exc_leaf(base)) is not None
                )
                bases.setdefault(node.name, names)
    return bases


def exception_ancestors(
    name: str, hierarchy: Dict[str, Tuple[str, ...]]
) -> Set[str]:
    """All (transitive) base names; unknown types default to Exception."""
    if name not in hierarchy:
        return {"Exception", "BaseException"}
    out: Set[str] = set()
    stack = [name]
    while stack:
        current = stack.pop()
        for base in hierarchy.get(current, ()):
            if base not in out:
                out.add(base)
                stack.append(base)
    return out


def _caught_by(
    exc: str, catchers: FrozenSet[str], hierarchy: Dict[str, Tuple[str, ...]]
) -> bool:
    if "*" in catchers or exc in catchers:
        return True
    return bool(exception_ancestors(exc, hierarchy) & catchers)


def _masked(
    exc: str,
    masks: Tuple[FrozenSet[str], ...],
    hierarchy: Dict[str, Tuple[str, ...]],
) -> bool:
    return any(_caught_by(exc, mask, hierarchy) for mask in masks)


def exception_propagation(
    index: RepoIndex, graph: Optional[CallGraph] = None
) -> Dict[str, Dict[str, RaiseSite]]:
    """Per function qualname: exception leaf name -> one originating site.

    Seeds from explicit ``raise Name(...)`` statements (after try/except
    masking inside the raising function), then propagates callee raise
    sets to callers — masking each against the handlers enclosing the
    call site — until a fixpoint.
    """
    if graph is None:
        graph = build_call_graph(index)
    hierarchy = class_hierarchy(index)
    raised: Dict[str, Dict[str, RaiseSite]] = {}
    for qualname, summ in graph.summaries.items():
        rel = graph.functions[qualname].rel
        local: Dict[str, RaiseSite] = {}
        for exc, line, masks in summ.raises:
            if exc not in local and not _masked(exc, masks, hierarchy):
                local[exc] = RaiseSite(exc=exc, path=rel, line=line)
        raised[qualname] = local

    changed = True
    while changed:
        changed = False
        for qualname, summ in graph.summaries.items():
            current = raised[qualname]
            for callee, masks in summ.calls:
                if callee == qualname:
                    continue
                for exc, site in raised.get(callee, {}).items():
                    if exc in current:
                        continue
                    if _masked(exc, masks, hierarchy):
                        continue
                    current[exc] = site
                    changed = True
    return raised
