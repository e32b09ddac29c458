"""Independent schedule auditing.

:func:`validate_schedule` re-derives legality and cost of a schedule with a
deliberately separate (slower, dict-based) implementation of the rules, so
that simulator bugs and validator bugs would have to coincide to hide an
illegal schedule.  Solvers and strategy emitters are cross-checked against
it in the test-suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Tuple

from .dag import ComputationDAG, Node
from .instance import PebblingInstance
from .moves import Compute, Delete, Load, Move, Store
from .schedule import Schedule

__all__ = ["ValidationReport", "validate_schedule"]

# pebble colour markers for the dict-based board
_RED = "r"
_BLUE = "b"


@dataclass
class ValidationReport:
    """Outcome of auditing a schedule.

    ``ok`` is True iff the schedule is fully legal AND ends with every sink
    pebbled.  ``violations`` lists every rule breach found (the audit keeps
    going after a violation, treating the offending move as a no-op, so one
    report can expose several independent problems).
    """

    ok: bool
    cost: Fraction
    violations: List[str] = field(default_factory=list)
    unpebbled_sinks: Tuple[Node, ...] = ()
    steps: int = 0
    compute_counts: Dict[Node, int] = field(default_factory=dict)

    def raise_if_invalid(self) -> None:
        if not self.ok:
            problems = "; ".join(self.violations[:5]) or (
                f"unpebbled sinks: {self.unpebbled_sinks[:5]!r}"
            )
            raise AssertionError(f"invalid schedule: {problems}")


def validate_schedule(
    instance: PebblingInstance,
    schedule: "Schedule | Iterable[Move]",
) -> ValidationReport:
    """Audit ``schedule`` against ``instance`` from the empty board.

    This intentionally re-implements the rules of Section 1 (plus the
    model-variant restrictions of Section 4) with a mutable board dict
    rather than reusing :mod:`repro.core.state`.
    """
    dag: ComputationDAG = instance.dag
    costs = instance.costs
    red_limit = instance.red_limit

    board: Dict[Node, str] = {}
    computed_count: Dict[Node, int] = {}
    violations: List[str] = []
    cost = Fraction(0)
    steps = 0

    def reds() -> int:
        return sum(1 for c in board.values() if c == _RED)

    for i, move in enumerate(schedule):
        steps += 1
        v = move.node
        if v not in dag:
            violations.append(f"step {i}: {move} targets unknown node")
            continue

        if isinstance(move, Load):
            if board.get(v) != _BLUE:
                violations.append(f"step {i}: {move} but node is not blue")
                continue
            if reds() + 1 > red_limit:
                violations.append(f"step {i}: {move} exceeds R={red_limit}")
                continue
            board[v] = _RED
            cost += costs.load_cost

        elif isinstance(move, Store):
            if board.get(v) != _RED:
                violations.append(f"step {i}: {move} but node is not red")
                continue
            board[v] = _BLUE
            cost += costs.store_cost

        elif isinstance(move, Compute):
            if board.get(v) == _RED:
                violations.append(f"step {i}: {move} but node already red")
                continue
            if not costs.recompute_allowed and computed_count.get(v, 0) > 0:
                violations.append(f"step {i}: {move} recomputes in oneshot")
                continue
            not_red = [u for u in dag.predecessors(v) if board.get(u) != _RED]
            if not_red:
                violations.append(
                    f"step {i}: {move} with non-red input(s) {not_red[:3]!r}"
                )
                continue
            if reds() + 1 > red_limit:
                violations.append(f"step {i}: {move} exceeds R={red_limit}")
                continue
            board[v] = _RED
            computed_count[v] = computed_count.get(v, 0) + 1
            cost += costs.compute_cost

        elif isinstance(move, Delete):
            if not costs.delete_allowed:
                violations.append(f"step {i}: {move} but deletions are forbidden")
                continue
            if v not in board:
                violations.append(f"step {i}: {move} but node holds no pebble")
                continue
            del board[v]
            cost += costs.delete_cost

        else:  # pragma: no cover - defensive
            violations.append(f"step {i}: unknown move {move!r}")

    unpebbled = tuple(s for s in sorted(dag.sinks, key=repr) if s not in board)
    ok = not violations and not unpebbled
    return ValidationReport(
        ok=ok,
        cost=cost,
        violations=violations,
        unpebbled_sinks=unpebbled,
        steps=steps,
        compute_counts=computed_count,
    )
