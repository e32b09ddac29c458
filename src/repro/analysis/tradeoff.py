"""Time-memory tradeoff curves: opt(R) as a function of R (Section 5).

A :class:`TradeoffCurve` is a measured sequence of (R, cost) points with
the paper's structural diagnostics:

* monotonicity — more red pebbles never cost more;
* the maximum-drop law — opt(R-1) <= opt(R) + 2n in the oneshot model
  (Section 5), so no single extra pebble saves more than 2n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, List, Optional, Tuple

from ..core.instance import PebblingInstance

__all__ = ["TradeoffCurve", "tradeoff_curve"]

Solver = Callable[[PebblingInstance], Fraction]


@dataclass(frozen=True)
class TradeoffCurve:
    """A measured opt(R) curve."""

    points: Tuple[Tuple[int, Fraction], ...]

    def __post_init__(self) -> None:
        rs = [r for r, _ in self.points]
        if rs != sorted(rs) or len(set(rs)) != len(rs):
            raise ValueError("points must be sorted by strictly increasing R")

    @property
    def r_values(self) -> List[int]:
        return [r for r, _ in self.points]

    @property
    def costs(self) -> List[Fraction]:
        return [c for _, c in self.points]

    def cost_at(self, r: int) -> Fraction:
        for rr, c in self.points:
            if rr == r:
                return c
        raise KeyError(f"no measurement at R={r}")

    def is_monotone_decreasing(self) -> bool:
        cs = self.costs
        return all(a >= b for a, b in zip(cs, cs[1:]))

    def drops(self) -> List[Fraction]:
        """cost(R) - cost(R+1) along consecutive measured R values."""
        cs = self.costs
        return [a - b for a, b in zip(cs, cs[1:])]

    def max_drop(self) -> Fraction:
        d = self.drops()
        return max(d) if d else Fraction(0)

    def respects_max_drop_law(self, n_nodes: int) -> bool:
        """Section 5: each extra pebble saves at most 2n (for consecutive
        R measurements)."""
        consecutive = [
            drop
            for (r1, _), (r2, _), drop in zip(
                self.points, self.points[1:], self.drops()
            )
            if r2 == r1 + 1
        ]
        return all(d <= 2 * n_nodes for d in consecutive)

    def saturation_r(self) -> Optional[int]:
        """Smallest measured R with cost 0 (the 'everything cached' point),
        or None if the curve never reaches 0."""
        for r, c in self.points:
            if c == 0:
                return r
        return None


def tradeoff_curve(
    instance: PebblingInstance,
    r_values: Iterable[int],
    solver: Solver,
) -> TradeoffCurve:
    """Measure opt(R) over ``r_values`` using ``solver``.

    ``solver`` maps an instance to a cost — e.g.
    ``lambda inst: solve_optimal(inst, return_schedule=False).cost`` for
    exact curves on small DAGs, or a strategy-based upper bound for the
    constructions with known optimal strategies.
    """
    points = []
    for r in sorted(set(r_values)):
        points.append((r, Fraction(solver(instance.with_red_limit(r)))))
    return TradeoffCurve(points=tuple(points))
