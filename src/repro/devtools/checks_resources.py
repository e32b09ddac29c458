"""RP007 — OS resources reach a release on every normal CFG path.

The process machinery hands out resources that hold file descriptors
and child processes: ``ctx.Pipe()`` connection ends, ``Pool`` objects,
``spawn_pipe_worker`` results, and sqlite connections.  Forgetting to
close one on *some* branch is invisible in tests (the GC papers over
it) but exhausts descriptors under the service's persistent pools.

The rule tracks resources bound to plain local names::

    conn = sqlite3.connect(path)
    parent, child = ctx.Pipe()

and walks the function's CFG (:func:`~repro.devtools.analysis.build_cfg`,
normal control flow only — unwinding paths are out of scope) from the
acquisition.  A path is safe when it hits a *release* —
``name.close()`` / ``.terminate()`` / ``.retire()``,
``retire_pipe_worker(name)``, ``with name:`` / ``closing(name)``, or
``del name`` — or an ownership *transfer*: the name returned, yielded,
passed as a call argument, stored into an attribute / container /
other variable, or rebound.  If the normal function exit is reachable
from the acquisition with the resource still held, that is a finding.

Scope: modules under ``src/`` (fixture escape hatch: a module whose
source contains ``devtools: src``).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from .analysis import (
    CFG,
    FunctionNode,
    _FUNC_TYPES,
    _header_exprs,
    build_cfg,
    stmt_bindings,
)
from .index import ModuleInfo, RepoIndex
from .report import Finding
from .rules import dotted_name, finding, rule

__all__ = []

#: call leaf names whose results are tracked resources
_ACQUIRE_LEAVES = frozenset({"Pipe", "Pool", "spawn_pipe_worker"})

#: dotted call names tracked regardless of leaf heuristics
_ACQUIRE_DOTTED = frozenset({"sqlite3.connect"})

#: method names that release the receiver
_RELEASE_METHODS = frozenset({"close", "terminate", "retire"})

#: free functions that release their argument
_RELEASE_CALLS = frozenset({"retire_pipe_worker"})


def _acquisition_label(call: ast.Call) -> Optional[str]:
    dotted = dotted_name(call.func)
    if dotted in _ACQUIRE_DOTTED:
        return dotted
    leaf = dotted.rsplit(".", 1)[-1] if dotted else ""
    if not leaf and isinstance(call.func, ast.Attribute):
        leaf = call.func.attr  # e.g. get_context().Pool(...)
    if leaf in _ACQUIRE_LEAVES:
        return leaf
    return None


def _attribute_base(expr: ast.expr) -> Optional[str]:
    """The root name of an attribute chain (``v.conn.close`` -> ``v``)."""
    while isinstance(expr, ast.Attribute):
        expr = expr.value
    if isinstance(expr, ast.Name):
        return expr.id
    return None


def _releases(stmt: ast.stmt, name: str) -> bool:
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            ctx = item.context_expr
            if isinstance(ctx, ast.Name) and ctx.id == name:
                return True
            if (
                isinstance(ctx, ast.Call)
                and dotted_name(ctx.func).rsplit(".", 1)[-1] == "closing"
                and any(
                    isinstance(a, ast.Name) and a.id == name for a in ctx.args
                )
            ):
                return True
        return False
    if isinstance(stmt, ast.Delete):
        return any(
            isinstance(t, ast.Name) and t.id == name for t in stmt.targets
        )
    # only the statement's own header evaluates at this CFG node —
    # compound bodies (if/for/try branches) have nodes of their own
    for node in _walk_header(stmt):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _RELEASE_METHODS
            and _attribute_base(func) == name
        ):
            return True
        if (
            isinstance(func, ast.Name)
            and func.id in _RELEASE_CALLS
            and any(isinstance(a, ast.Name) and a.id == name for a in node.args)
        ):
            return True
    return False


def _name_in(tree: ast.AST, name: str) -> bool:
    return any(
        isinstance(node, ast.Name) and node.id == name
        for node in ast.walk(tree)
    )


def _walk_header(stmt: ast.stmt) -> Iterator[ast.AST]:
    """All AST nodes evaluated *at* this CFG node (not in nested blocks)."""
    for expr in _header_exprs(stmt):
        yield from ast.walk(expr)


def _escapes(stmt: ast.stmt, name: str) -> bool:
    """Ownership leaves the local frame: rule stops tracking the name."""
    if isinstance(stmt, ast.Return):
        return stmt.value is not None and _name_in(stmt.value, name)
    if isinstance(stmt, ast.Assign):
        # aliasing / storing into a container or attribute
        if _name_in(stmt.value, name):
            return True
    if isinstance(stmt, (ast.AnnAssign, ast.AugAssign)) and stmt.value is not None:
        if _name_in(stmt.value, name):
            return True
    for node in _walk_header(stmt):
        if isinstance(node, (ast.Yield, ast.YieldFrom, ast.Await)):
            if node.value is not None and _name_in(node.value, name):
                return True
        if isinstance(node, ast.Call):
            for arg in [*node.args, *[kw.value for kw in node.keywords]]:
                if _name_in(arg, name):
                    return True
    return False


def _acquisitions(fn: FunctionNode) -> List[ast.stmt]:
    """Assignments binding a tracked resource to plain local names."""
    out: List[ast.stmt] = []
    for stmt in ast.walk(fn):
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            continue
        if not isinstance(stmt.value, ast.Call):
            continue
        if _acquisition_label(stmt.value) is None:
            continue
        target = stmt.targets[0]
        names = (
            [target]
            if isinstance(target, ast.Name)
            else list(target.elts)
            if isinstance(target, (ast.Tuple, ast.List))
            else []
        )
        if names and all(isinstance(n, ast.Name) for n in names):
            out.append(stmt)
    return out


def _leak_paths(
    cfg: CFG, start: int, name: str, acquisition: ast.stmt
) -> bool:
    """True when the normal exit is reachable with ``name`` still held."""
    seen: Set[int] = set()
    stack = list(cfg.succ[start])
    while stack:
        nid = stack.pop()
        if nid in seen:
            continue
        seen.add(nid)
        if nid == CFG.EXIT:
            return True
        if nid == CFG.RAISE_EXIT:
            continue
        stmt = cfg.stmts[nid]
        if stmt is None:
            continue
        if _releases(stmt, name) or _escapes(stmt, name):
            continue  # this path is accounted for
        if stmt is not acquisition and name in stmt_bindings(stmt):
            continue  # rebound: the original is no longer reachable here
        stack.extend(cfg.succ[nid])
    return False


def _is_src_module(module: ModuleInfo) -> bool:
    return module.rel.startswith("src/") or "devtools: src" in module.source


@rule(
    "RP007",
    "resource-release-paths",
    scope="file",
    description=(
        "Pipe/Pool/PipeWorker/sqlite resources bound to a local name must "
        "reach close/retire/terminate (or a context-manager exit, or an "
        "ownership transfer) on every normal control-flow path"
    ),
)
def check_resource_release(
    module: ModuleInfo, index: RepoIndex
) -> Iterator[Finding]:
    if not _is_src_module(module):
        return
    tree = module.tree
    assert tree is not None
    for fn in ast.walk(tree):
        if not isinstance(fn, _FUNC_TYPES):
            continue
        acquisitions = _acquisitions(fn)
        if not acquisitions:
            continue
        cfg = build_cfg(fn)
        for stmt in acquisitions:
            assert isinstance(stmt, ast.Assign)
            call = stmt.value
            assert isinstance(call, ast.Call)
            label = _acquisition_label(call) or "resource"
            target = stmt.targets[0]
            names = (
                [target.id]
                if isinstance(target, ast.Name)
                else [n.id for n in target.elts if isinstance(n, ast.Name)]
            )
            nodes = cfg.nodes_for(stmt)
            if not nodes:
                continue  # e.g. inside a nested function: out of scope
            for var in names:
                if _escapes(stmt, var):
                    continue  # acquired-and-transferred in one statement
                if any(
                    _leak_paths(cfg, nid, var, stmt) for nid in nodes
                ):
                    yield finding(
                        "RP007", module, stmt,
                        f"resource '{var}' from {label}(...) can reach a "
                        f"normal exit of {fn.name}() without close/retire "
                        f"on some path; release it on every branch, use a "
                        f"context manager, or transfer ownership",
                    )
