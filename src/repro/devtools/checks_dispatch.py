"""RP011 — dead / duplicated branches in the spec-grammar dispatch.

The spec grammars (``generators/specs.py``) dispatch on string
constants in flat ``if kind == "...": return ...`` chains.  Appending a
branch for a kind that already has one is an easy rebase casualty: the
new branch is dead (the earlier one returns first) and the grammar
silently keeps its old behaviour.

For every function the rule groups branch tests of the forms
``name == "const"`` / ``name != "const"`` / ``name.startswith("const")``
by ``(variable, operation, constant)``; a second occurrence whose first
occurrence terminates (its body ends in ``return``/``raise``) is dead
and flagged.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from .analysis import _FUNC_TYPES
from .index import ModuleInfo, RepoIndex
from .report import Finding
from .rules import rule

__all__ = ["SPEC_MODULES"]

#: the dispatch modules this rule audits
SPEC_MODULES = frozenset({"src/repro/generators/specs.py"})


def _is_spec_module(module: ModuleInfo) -> bool:
    return module.rel in SPEC_MODULES or "devtools: spec-grammar" in module.source


def _branch_key(test: ast.expr) -> Optional[Tuple[str, str, str]]:
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        op = test.ops[0]
        if not isinstance(op, (ast.Eq, ast.NotEq)):
            return None
        left, right = test.left, test.comparators[0]
        if isinstance(right, ast.Name) and isinstance(left, ast.Constant):
            left, right = right, left
        if (
            isinstance(left, ast.Name)
            and isinstance(right, ast.Constant)
            and isinstance(right.value, str)
        ):
            kind = "==" if isinstance(op, ast.Eq) else "!="
            return (left.id, kind, right.value)
    if (
        isinstance(test, ast.Call)
        and isinstance(test.func, ast.Attribute)
        and test.func.attr == "startswith"
        and isinstance(test.func.value, ast.Name)
        and test.args
        and isinstance(test.args[0], ast.Constant)
        and isinstance(test.args[0].value, str)
    ):
        return (test.func.value.id, "startswith", test.args[0].value)
    return None


def _terminates(body: List[ast.stmt]) -> bool:
    return bool(body) and isinstance(body[-1], (ast.Return, ast.Raise))


@rule(
    "RP011",
    "dead-dispatch-branch",
    scope="file",
    description=(
        "spec-grammar dispatch chains must not test the same "
        "(variable, constant) twice — the second branch is dead"
    ),
)
def check_dispatch_branches(
    module: ModuleInfo, index: RepoIndex
) -> Iterator[Finding]:
    if not _is_spec_module(module):
        return
    tree = module.tree
    assert tree is not None
    for fn in ast.walk(tree):
        if not isinstance(fn, _FUNC_TYPES):
            continue
        seen: Dict[Tuple[str, str, str], ast.If] = {}
        for node in ast.walk(fn):
            if not isinstance(node, ast.If):
                continue
            key = _branch_key(node.test)
            if key is None:
                continue
            first = seen.get(key)
            if first is None:
                seen[key] = node
                continue
            if not _terminates(first.body):
                continue  # the earlier branch falls through: not dead
            var, op, const = key
            test_desc = (
                f"{var}.startswith({const!r})"
                if op == "startswith"
                else f"{var} {op} {const!r}"
            )
            yield Finding(
                rule="RP011",
                path=module.rel,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"duplicate dispatch branch in {fn.name}(): "
                    f"`{test_desc}` already dispatched at line "
                    f"{first.lineno}, so this branch is dead"
                ),
            )
