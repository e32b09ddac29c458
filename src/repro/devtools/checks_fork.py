"""RP003 — pickling safety of process entry points.

Under the ``spawn`` start method the target callable of a worker
process (the experiment backends start theirs through
``spawn_pipe_worker``) is pickled into the child.  Lambdas, closures
and bound methods pickle only under ``fork`` (or not at all), so
passing one compiles fine, works on Linux dev boxes, and dies on
spawn-only platforms — the classic "works on my machine" of
multiprocessing code.  This rule flags, inside ``src/``:

* ``ctx.Process(target=...)`` / ``multiprocessing.Process(target=...)``
  / ``spawn_pipe_worker(ctx, target)`` where the target is a lambda, a
  bound method (``self._loop``), or a function defined inside the
  enclosing function (a closure).  A plain name that is a parameter or
  an import is unresolvable statically and passes.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from .index import ModuleInfo, RepoIndex
from .report import Finding
from .rules import dotted_name, finding, rule

__all__ = []

#: call names whose ``target`` ends up pickled into a spawned child
_PROCESS_CALLS = frozenset({"Process", "spawn_pipe_worker"})


class _ForkVisitor(ast.NodeVisitor):
    """Walks a module tracking the enclosing-function stack."""

    def __init__(self, module: ModuleInfo) -> None:
        self.module = module
        self.stack: List[ast.AST] = []
        self.findings: List[Finding] = []

    # -- scope tracking -------------------------------------------------

    def _visit_scope(self, node: ast.AST) -> None:
        self.stack.append(node)
        self.generic_visit(node)
        self.stack.pop()

    visit_FunctionDef = _visit_scope
    visit_AsyncFunctionDef = _visit_scope

    def _local_defs(self) -> Set[str]:
        """Function names defined inside the current (non-module) scopes."""
        names: Set[str] = set()
        for scope in self.stack:
            for child in ast.walk(scope):
                if child is scope:
                    continue
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(child.name)
        return names

    # -- the checks -----------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        leaf = name.rsplit(".", 1)[-1] if name else ""

        if leaf in _PROCESS_CALLS:
            target = self._target_of(leaf, node)
            if target is not None:
                self._check_target(target)

        self.generic_visit(node)

    @staticmethod
    def _target_of(leaf: str, node: ast.Call) -> Optional[ast.expr]:
        if leaf == "Process":
            for kw in node.keywords:
                if kw.arg == "target":
                    return kw.value
            return None
        # spawn_pipe_worker(ctx, target, ...)
        return node.args[1] if len(node.args) >= 2 else None

    def _check_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Lambda):
            self.findings.append(
                finding(
                    "RP003", self.module, target,
                    "lambda as process target: lambdas don't pickle, so "
                    "this breaks under the spawn start method; use a "
                    "module-level function",
                )
            )
        elif isinstance(target, ast.Attribute):
            self.findings.append(
                finding(
                    "RP003", self.module, target,
                    f"bound attribute {ast.unparse(target)} as process "
                    f"target: instance state must survive pickling into "
                    f"the child; pass a module-level function plus args",
                )
            )
        elif isinstance(target, ast.Name) and target.id in self._local_defs():
            self.findings.append(
                finding(
                    "RP003", self.module, target,
                    f"nested function {target.id!r} as process target: "
                    f"closures don't pickle under spawn; hoist it to "
                    f"module scope",
                )
            )


@rule(
    "RP003",
    "fork-pickling-safety",
    scope="file",
    description=(
        "process targets must be module-level functions (no lambdas, "
        "bound methods or closures)"
    ),
)
def check_fork_safety(module: ModuleInfo, index: RepoIndex) -> Iterator[Finding]:
    if not (module.rel.startswith("src/") or "devtools: src" in module.source):
        return
    assert module.tree is not None
    visitor = _ForkVisitor(module)
    visitor.visit(module.tree)
    yield from visitor.findings
