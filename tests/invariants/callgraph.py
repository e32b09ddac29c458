"""Which exception types can escape a function: a static call graph.

Built from the parsed modules of one source tree (:func:`parse_tree`):

* :func:`build_call_graph`: module-level functions and methods,
  addressed as ``"<module rel>::<qual>"``, with call resolution through
  module-level names, ``from x import f`` / ``import x as y`` aliases
  (relative imports included), ``self.method(...)`` and class
  instantiation (resolved to ``Class.__init__``);
* :func:`class_hierarchy` / :func:`exception_ancestors`: exception
  subtyping over the tree's classes and the builtin exceptions, so
  ``except LookupError`` is known to absorb ``KeyError``;
* :func:`exception_propagation`: the fixpoint "which exception types
  can escape this function", with ``try/except`` masking (a handler
  that swallows a type removes it; a handler containing a bare
  ``raise`` does not).

Deliberate approximations, which err toward silence: only explicit
``raise Name(...)`` statements seed the analysis (an implicit
``KeyError`` from a subscript is invisible), calls through variables of
unknown type resolve to nothing, and raises of non-name expressions
(``raise make_error()``) are skipped.
"""

import ast
import builtins
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]
Modules = Dict[str, ast.Module]

_TRY_TYPES: Tuple[type, ...] = (
    (ast.Try, ast.TryStar) if hasattr(ast, "TryStar") else (ast.Try,)
)
_LOOP_TYPES = (ast.While, ast.For, ast.AsyncFor)
_FUNC_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef)
_COMPOUND_TYPES = (*_LOOP_TYPES, ast.If, ast.With, ast.AsyncWith, ast.Match)


def parse_tree(root: Path) -> Modules:
    """Posix path relative to ``root`` -> AST, for each module under ``src/``."""
    return {
        path.relative_to(root).as_posix(): ast.parse(
            path.read_text(encoding="utf-8"), filename=str(path)
        )
        for path in sorted((root / "src").rglob("*.py"))
    }


def _header_exprs(stmt: ast.stmt) -> List[ast.expr]:
    """The expressions a compound statement evaluates itself."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    return []


# --------------------------------------------------------------------- #
# the call graph
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class FunctionInfo:
    """One module-level function or method, keyed ``"<rel>::<qual>"``."""

    rel: str
    qual: str  # "func" or "Class.method"
    node: FunctionNode


@dataclass(frozen=True)
class RaiseSite:
    """Where an exception type originates."""

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
    parts = rel[len("src/") : -len(".py")].split("/")
    return parts[:-1] if parts[-1] == "__init__" else parts


def _module_rel_for(parts: Sequence[str], modules: Modules) -> Optional[str]:
    """The rel path of a dotted module or package, if the tree has it."""
    base = "src/" + "/".join(parts)
    for rel in (base + ".py", base + "/__init__.py"):
        if rel in modules:
            return rel
    return None


def _import_map(rel: str, modules: Modules) -> Dict[str, Tuple[str, Optional[str]]]:
    """Local name -> (target module rel, symbol or None for a module alias)."""
    out: Dict[str, Tuple[str, Optional[str]]] = {}
    parts = _module_parts(rel)
    pkg = parts if rel.endswith("__init__.py") else parts[:-1]
    for node in ast.walk(modules[rel]):
        if isinstance(node, ast.Import):
            for alias in node.names:
                target = _module_rel_for(alias.name.split("."), modules)
                if target is not None and alias.asname is not None:
                    out[alias.asname] = (target, None)
        elif isinstance(node, ast.ImportFrom):
            base = pkg[: len(pkg) - (node.level - 1)] if node.level else []
            base = [*base, *(node.module.split(".") if node.module else [])]
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                submodule = _module_rel_for([*base, alias.name], modules)
                if submodule is not None:
                    out[local] = (submodule, None)
                    continue
                target = _module_rel_for(base, modules)
                if target is not None:
                    out[local] = (target, alias.name)
    return out


class _Resolver:
    """Resolve a call expression to a tree-wide function qualname."""

    def __init__(
        self,
        rel: str,
        functions: Dict[str, FunctionInfo],
        imports: Dict[str, Tuple[str, Optional[str]]],
    ) -> None:
        self.rel = rel
        self.functions = functions
        self.imports = imports

    def _in_module(self, rel: str, name: str) -> Optional[str]:
        for qualname in (f"{rel}::{name}", f"{rel}::{name}.__init__"):
            if qualname in self.functions:
                return qualname
        return None

    def resolve(self, call: ast.Call, class_ctx: Optional[str]) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            local = self._in_module(self.rel, func.id)
            if local is not None:
                return local
            target = self.imports.get(func.id)
            if target is not None and target[1] is not None:
                return self._in_module(target[0], target[1])
            return None
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            base = func.value.id
            if base == "self" and class_ctx is not None:
                method = f"{self.rel}::{class_ctx}.{func.attr}"
                return method if method in self.functions else None
            target = self.imports.get(base)
            if target is not None and target[1] is None:
                return self._in_module(target[0], func.attr)
        return None


def _exc_leaf(expr: Optional[ast.expr]) -> Optional[str]:
    """``raise X(...)`` / ``raise a.X`` -> ``"X"``; None when unnameable."""
    if isinstance(expr, ast.Call):
        expr = expr.func
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


def _swallow_set(stmt: ast.stmt) -> FrozenSet[str]:
    """Types the handlers of a ``try`` absorb (bare re-raisers excluded)."""
    caught: Set[str] = set()
    for handler in getattr(stmt, "handlers", []):
        if any(isinstance(n, ast.Raise) and n.exc is None for n in ast.walk(handler)):
            continue
        if handler.type is None:
            caught.add("*")
            continue
        nodes = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        caught.update(leaf for node in nodes if (leaf := _exc_leaf(node)) is not None)
    return frozenset(caught)


def _summarize(
    fn: FunctionNode, resolver: _Resolver, class_ctx: Optional[str]
) -> _FnSummary:
    summary = _FnSummary()

    def record_calls(root: ast.AST, masks: Tuple[FrozenSet[str], ...]) -> None:
        for node in ast.walk(root):
            if isinstance(node, ast.Call):
                callee = resolver.resolve(node, class_ctx)
                if callee is not None:
                    summary.calls.append((callee, masks))

    def visit(body: Sequence[ast.stmt], masks: Tuple[FrozenSet[str], ...]) -> None:
        for stmt in body:
            if isinstance(stmt, _TRY_TYPES):
                swallow = _swallow_set(stmt)
                visit(stmt.body, (*masks, swallow) if swallow else masks)
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
                visit(getattr(stmt, "body", []), masks)
                visit(getattr(stmt, "orelse", []), masks)
                for case in getattr(stmt, "cases", []):
                    visit(case.body, masks)
            else:
                record_calls(stmt, masks)

    visit(fn.body, ())
    return summary


def build_call_graph(modules: Modules) -> CallGraph:
    """Module-level functions and methods, with per-function summaries."""
    functions: Dict[str, FunctionInfo] = {}
    for rel, tree in modules.items():
        for node in tree.body:
            members = [(node.name, node)] if isinstance(node, _FUNC_TYPES) else []
            if isinstance(node, ast.ClassDef):
                members = [
                    (f"{node.name}.{sub.name}", sub)
                    for sub in node.body
                    if isinstance(sub, _FUNC_TYPES)
                ]
            for qual, fn in members:
                functions[f"{rel}::{qual}"] = FunctionInfo(rel, qual, fn)

    resolvers = {rel: _Resolver(rel, functions, _import_map(rel, modules)) for rel in modules}
    summaries = {
        qualname: _summarize(
            info.node,
            resolvers[info.rel],
            info.qual.split(".", 1)[0] if "." in info.qual else None,
        )
        for qualname, info in functions.items()
    }
    return CallGraph(functions=functions, summaries=summaries)


# --------------------------------------------------------------------- #
# exception hierarchy + propagation
# --------------------------------------------------------------------- #

#: leaf name -> direct base names, for every builtin exception class
_BUILTIN_EXC_BASES: Dict[str, Tuple[str, ...]] = {
    name: tuple(base.__name__ for base in cls.__bases__ if base is not object)
    for name, cls in vars(builtins).items()
    if isinstance(cls, type) and issubclass(cls, BaseException)
}


def class_hierarchy(modules: Modules) -> Dict[str, Tuple[str, ...]]:
    """Leaf class name -> direct base leaf names (tree classes + builtins)."""
    bases: Dict[str, Tuple[str, ...]] = dict(_BUILTIN_EXC_BASES)
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases.setdefault(
                    node.name,
                    tuple(leaf for b in node.bases if (leaf := _exc_leaf(b)) is not None),
                )
    return bases


def exception_ancestors(name: str, hierarchy: Dict[str, Tuple[str, ...]]) -> Set[str]:
    """All (transitive) base names; unknown types default to Exception."""
    if name not in hierarchy:
        return {"Exception", "BaseException"}
    out: Set[str] = set()
    stack = [name]
    while stack:
        for base in hierarchy.get(stack.pop(), ()):
            if base not in out:
                out.add(base)
                stack.append(base)
    return out


def _masked(
    exc: str,
    masks: Tuple[FrozenSet[str], ...],
    hierarchy: Dict[str, Tuple[str, ...]],
) -> bool:
    names = {exc, "*"} | exception_ancestors(exc, hierarchy)
    return any(names & mask for mask in masks)


def exception_propagation(
    modules: Modules, graph: Optional[CallGraph] = None
) -> Dict[str, Dict[str, RaiseSite]]:
    """Per function qualname: exception leaf name -> one originating site.

    Seeds from explicit ``raise Name(...)`` statements (after try/except
    masking inside the raising function), then propagates callee raise
    sets to callers, masking each against the handlers enclosing the
    call site, until a fixpoint.
    """
    if graph is None:
        graph = build_call_graph(modules)
    hierarchy = class_hierarchy(modules)
    raised: Dict[str, Dict[str, RaiseSite]] = {}
    for qualname, summ in graph.summaries.items():
        rel = graph.functions[qualname].rel
        local: Dict[str, RaiseSite] = {}
        for exc, line, masks in summ.raises:
            if exc not in local and not _masked(exc, masks, hierarchy):
                local[exc] = RaiseSite(path=rel, line=line)
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
                    if exc not in current and not _masked(exc, masks, hierarchy):
                        current[exc] = site
                        changed = True
    return raised
