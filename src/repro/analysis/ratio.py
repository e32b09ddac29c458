"""Greedy-versus-optimal ratio experiments (Section 8)."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Tuple

from ..core.instance import PebblingInstance
from ..core.simulator import PebblingSimulator
from ..heuristics.greedy import GreedyRule, greedy_pebble
from ..reductions.greedy_grid import (
    greedy_grid_construction,
    grid_group_greedy,
)
from ..solvers.exact import solve_optimal

__all__ = ["RatioPoint", "greedy_vs_optimal", "greedy_grid_ratio_sweep"]


@dataclass(frozen=True)
class RatioPoint:
    """One measurement of the greedy/optimal cost ratio."""

    n_nodes: int
    greedy_cost: Fraction
    optimal_cost: Fraction

    @property
    def ratio(self) -> float:
        if self.optimal_cost == 0:
            return float("inf") if self.greedy_cost > 0 else 1.0
        return float(self.greedy_cost / self.optimal_cost)


def greedy_vs_optimal(
    instance: PebblingInstance,
    rule: GreedyRule = GreedyRule.MOST_RED_INPUTS,
) -> RatioPoint:
    """Exact-optimum comparison on one (small) instance."""
    greedy = greedy_pebble(instance, rule)
    optimal = solve_optimal(instance, return_schedule=False)
    return RatioPoint(
        n_nodes=instance.dag.n_nodes,
        greedy_cost=greedy.cost,
        optimal_cost=optimal.cost,
    )


def greedy_grid_ratio_sweep(
    sizes: Iterable[Tuple[int, int]],
) -> List[RatioPoint]:
    """The Theorem 4 experiment: for each (l, k_common) build the grid,
    run the group-level greedy and the optimal diagonal sweep, and record
    the cost ratio.  The ratio grows with the instance (the paper's
    Theta~(n) law at k' = Theta~(n / l))."""
    points: List[RatioPoint] = []
    for l, k_common in sizes:
        c = greedy_grid_construction(l, k_common)
        sched, _ = grid_group_greedy(c)
        greedy_cost = PebblingSimulator(c.instance()).run(
            sched, require_complete=True
        ).cost
        opt_cost = c.cost_of_sequence(c.optimal_sequence())
        points.append(
            RatioPoint(
                n_nodes=c.system.dag.n_nodes,
                greedy_cost=greedy_cost,
                optimal_cost=opt_cost,
            )
        )
    return points
