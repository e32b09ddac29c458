"""RP012 — no float literals in the integer-scaled cost hot paths.

The bitmask kernels scale every move cost by the LCM of the cost
denominators (``Expander.scale``) so the whole search runs on exact
integers — ``g``, ``f``, bounds and incumbents are ints end to end,
and results convert back to :class:`~fractions.Fraction` only at the
boundary.  One ``g + 1.0`` quietly turns the bucket queue float-typed:
costs start accumulating rounding error and two engines can disagree
on optima by less than an ulp.

The rule scans the packed/kernel modules
(:data:`~repro.devtools.checks_bitwidth.PACKED_MODULES`) for float
literals that *mix with cost-vocabulary expressions*: a binary
operation or comparison whose other operand — or an assignment whose
target — is a cost-named variable (``g``, ``f``, ``h``, ``ng``,
``*_i``, ``*cost*``, ``*bound*``, ``incumbent``, ``threshold``,
``scale``, …).  Timing floats (``conn.poll(0.005)``,
``time.sleep(...)``, ping intervals) never compare against cost names
and stay legal.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from .checks_bitwidth import PACKED_MODULES
from .index import ModuleInfo, RepoIndex
from .report import Finding
from .rules import rule

__all__ = []

_COST_EXACT = frozenset(
    {"g", "f", "h", "ng", "nf", "nh", "scale", "best", "best_g", "incumbent",
     "threshold", "next_threshold", "budget"}
)

_COST_SUBSTRINGS = ("cost", "bound", "incumbent", "threshold")


def _is_cost_name(name: str) -> bool:
    lowered = name.lower().lstrip("_")
    if lowered in _COST_EXACT or lowered.endswith("_i"):
        return True
    return any(sub in lowered for sub in _COST_SUBSTRINGS)


def _cost_expr(expr: ast.expr) -> Optional[str]:
    """The cost-vocabulary name an expression denotes, if any."""
    if isinstance(expr, ast.Name) and _is_cost_name(expr.id):
        return expr.id
    if isinstance(expr, ast.Attribute) and _is_cost_name(expr.attr):
        return expr.attr
    if isinstance(expr, ast.Subscript):
        return _cost_expr(expr.value)
    if isinstance(expr, ast.BinOp):
        return _cost_expr(expr.left) or _cost_expr(expr.right)
    return None


def _is_float_literal(expr: ast.expr) -> bool:
    return isinstance(expr, ast.Constant) and isinstance(expr.value, float)


def _emit(
    module: ModuleInfo, node: ast.Constant, cost_name: str, context: str
) -> Finding:
    return Finding(
        rule="RP012",
        path=module.rel,
        line=node.lineno,
        col=node.col_offset,
        message=(
            f"float literal {node.value!r} {context} integer-scaled cost "
            f"'{cost_name}': kernel costs are LCM-scaled ints — use "
            f"{int(node.value) if float(node.value).is_integer() else 'a scaled int'} "
            f"(or route the value through Fraction at the boundary)"
        ),
    )


_MARKER_RE = re.compile(r"devtools:\s*packed-state")


def _in_scope(module: ModuleInfo) -> bool:
    return module.rel in PACKED_MODULES or bool(_MARKER_RE.search(module.source))


@rule(
    "RP012",
    "float-costs-in-kernel",
    scope="file",
    description=(
        "packed/kernel modules keep costs on LCM-scaled integers: float "
        "literals must not mix into cost-vocabulary arithmetic, "
        "comparisons or assignments"
    ),
)
def check_float_costs(module: ModuleInfo, index: RepoIndex) -> Iterator[Finding]:
    if not _in_scope(module):
        return
    tree = module.tree
    assert tree is not None
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp):
            for literal, other in (
                (node.left, node.right), (node.right, node.left)
            ):
                if _is_float_literal(literal):
                    cost = _cost_expr(other)
                    if cost is not None:
                        assert isinstance(literal, ast.Constant)
                        yield _emit(module, literal, cost, "mixes into")
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            cost = next(
                (c for o in operands if (c := _cost_expr(o)) is not None), None
            )
            if cost is None:
                continue
            for o in operands:
                if _is_float_literal(o):
                    assert isinstance(o, ast.Constant)
                    yield _emit(module, o, cost, "compares against")
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            value = node.value
            if value is None or not _is_float_literal(value):
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            cost = next(
                (c for t in targets if (c := _cost_expr(t)) is not None), None
            )
            if cost is not None:
                assert isinstance(value, ast.Constant)
                yield _emit(module, value, cost, "assigned to")
