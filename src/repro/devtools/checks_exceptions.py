"""RP008 — the public solver exception contract, machine-checked.

``docs/api.md`` and the service layer promise that a solver call fails
in exactly two vocabularies: the :class:`~repro.core.errors.PebblingError`
hierarchy (``SolverError``, ``BudgetExceededError``,
``InfeasibleInstanceError``, …) for domain failures and ``ValueError``
for malformed inputs.  The service maps those to HTTP 4xx/5xx; anything
else — an ``AssertionError`` escaping a model dispatch, a ``KeyError``
from a missing table entry — surfaces as an unexplained 500.

The rule reads ``__all__`` of ``src/repro/solvers/__init__.py``,
resolves each exported name to the module-level function defining it
under ``src/repro/solvers/``, and asks the exception-propagation
fixpoint (:func:`~repro.devtools.analysis.exception_propagation`) which
exception types can escape it.  Types outside the contract are flagged
*at their originating raise site*, so the fix lands where the raise
is.

Known limits, by construction of the propagation graph: only explicit
``raise Name(...)`` statements seed the analysis (implicit ``KeyError``
from subscripts are invisible), and calls through untyped variables
propagate nothing.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from .analysis import (
    build_call_graph,
    class_hierarchy,
    exception_ancestors,
    exception_propagation,
)
from .index import RepoIndex
from .report import Finding
from .rules import rule

__all__ = ["SOLVERS_INIT", "ALLOWED_EXCEPTION_BASES"]

#: the package whose ``__all__`` defines the public solver entry points
SOLVERS_INIT = "src/repro/solvers/__init__.py"
SOLVERS_DIR = "src/repro/solvers/"

#: an escaping exception is legal iff it is (a subclass of) one of these
ALLOWED_EXCEPTION_BASES = ("PebblingError", "ValueError")


def _exported_names(tree: ast.Module) -> List[str]:
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "__all__"
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            return [
                elt.value
                for elt in node.value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            ]
    return []


def _allowed(exc: str, hierarchy: Dict[str, Tuple[str, ...]]) -> bool:
    if exc in ALLOWED_EXCEPTION_BASES:
        return True
    return bool(exception_ancestors(exc, hierarchy) & set(ALLOWED_EXCEPTION_BASES))


@rule(
    "RP008",
    "solver-exception-contract",
    scope="repo",
    description=(
        "public solvers/* entry points (the package __all__) may only let "
        "PebblingError subclasses and ValueError escape; other types are "
        "flagged at their originating raise via the propagation graph"
    ),
)
def check_exception_contract(index: RepoIndex) -> Iterator[Finding]:
    init = index.module(SOLVERS_INIT)
    if init is None or init.tree is None:
        return  # not this repo's layout (or a fixture without solvers)
    exported = _exported_names(init.tree)
    if not exported:
        return
    graph = build_call_graph(index)
    hierarchy = class_hierarchy(index)
    raised = exception_propagation(index, graph)

    # entry point name -> qualnames of defining solver-module functions
    flagged: Dict[Tuple[str, int, str], Set[str]] = {}
    for name in exported:
        qualnames = [
            qn
            for qn, info in graph.functions.items()
            if info.rel.startswith(SOLVERS_DIR) and info.qual == name
        ]
        for qn in qualnames:
            for exc, site in raised.get(qn, {}).items():
                if exc not in hierarchy:
                    # not a class the repo or the builtin table knows —
                    # e.g. ``raise make_error()``; unjudgeable, skip
                    continue
                if _allowed(exc, hierarchy):
                    continue
                key = (site.path, site.line, exc)
                flagged.setdefault(key, set()).add(name)

    for (path, line, exc), entry_points in sorted(flagged.items()):
        names = ", ".join(sorted(entry_points))
        yield Finding(
            rule="RP008",
            path=path,
            line=line,
            col=0,
            message=(
                f"raise {exc} here can escape public solver entry "
                f"point(s) {names}; the contract allows only "
                f"PebblingError subclasses and ValueError — convert the "
                f"raise or catch it at the boundary"
            ),
        )
