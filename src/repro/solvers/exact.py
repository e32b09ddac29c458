"""Exact optimal pebbling via A* search over pebbling states.

The state graph has one vertex per pebbling state and one weighted edge
per legal move; the optimal pebbling cost is the shortest distance from
the empty board to any complete state.  Search over this graph is
exponential in general — the paper proves the problem NP-hard (Theorem 2)
and PSPACE-complete in base [Demaine & Liu] — so this solver is the
*ground-truth oracle for small instances* that every other component is
calibrated against.

By default (``heuristic="auto"``) the search is A* under one admissible,
consistent bound per cost model (:func:`repro.solvers.kernel.compile_bound`):
one load per blue parent of a needed, uncomputed node when recomputation
is forbidden (oneshot, where states that cannot finish are cut), plus
epsilon per needed, uncomputed node when computation is priced
(compcost).  Base and nodel get no bound; ``heuristic=None`` runs
uniform-cost search.  :attr:`OptimalResult.heuristic` names the terms.

Two engines implement the same contract:

* ``engine="bits"`` (default): the shared bitmask kernel of
  :mod:`repro.solvers.kernel` — one packed int per state, integer costs,
  delete-normalized successors and the one best-first driver every
  packed-key game shares.  This is what raised the feasible instance
  sizes; see ``tests/benchmarks/test_perf.py``.
* ``engine="numpy"``: the batched frontier engine of
  :mod:`repro.solvers.batch_kernel` over the same edge alphabet, for
  DAGs of up to 64 nodes.

The golden-optima suite (``tests/solvers/test_golden_optima.py``) pins
that both engines, and a frozenset reference search kept in the tests,
return identical optima on classic instances.

Safe prunes applied (all cost-preserving, see the test-suite):

* blue pebbles are never deleted (a blue pebble occupies no red slot and
  never blocks a move, so removing it can only destroy options);
* zero-cost moves are explored first through the priority queue ordering,
  which keeps the frontier small on gadget DAGs.

For the base model, optimal pebblings may be superpolynomially long
(Section 4) but never *cheaper* than shorter ones below any fixed budget;
the search handles zero-cost cycles because visited states are closed at
their first settled cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ..core.instance import PebblingInstance
from ..core.schedule import Schedule
from . import kernel

__all__ = [
    "OptimalResult",
    "solve_optimal",
    "decide_pebbling",
]


@dataclass(frozen=True)
class OptimalResult:
    """Result of an exact search.

    Attributes
    ----------
    cost:
        The optimal pebbling cost.
    schedule:
        One optimal schedule (None when reconstruction was disabled).
    expanded:
        Number of states popped from the frontier.
    generated:
        Number of successor states generated.
    heuristic:
        The terms of the bound the search ran under, joined by ``+``
        (``"loads"``, ``"computes"``), or ``"none"`` for uniform-cost
        search.
    """

    cost: Fraction
    schedule: Optional[Schedule]
    expanded: int
    generated: int
    heuristic: str = "none"

    @property
    def length(self) -> Optional[int]:
        """Number of moves of the reconstructed optimal pebbling."""
        return len(self.schedule) if self.schedule is not None else None


def solve_optimal(
    instance: PebblingInstance,
    *,
    budget: int = 2_000_000,
    return_schedule: bool = True,
    heuristic: Optional[str] = "auto",
    engine: str = "bits",
) -> OptimalResult:
    """Find an optimal pebbling by A* (default) or uniform-cost search.

    Parameters
    ----------
    instance:
        The pebbling problem; any of the four models.
    budget:
        Maximum number of state expansions before
        :class:`BudgetExceededError` is raised.
    return_schedule:
        Reconstruct and return one optimal schedule (costs memory for
        parent pointers; disable for pure cost queries on larger searches).
    heuristic:
        ``"auto"`` (default) runs A* under the cost model's admissible
        bound (see the module docstring); ``None`` runs uniform-cost
        search.  Any other value raises :class:`ValueError`.
    engine:
        ``"bits"`` for the shared bitmask kernel (default) or ``"numpy"``
        for the batched frontier engine of
        :mod:`repro.solvers.batch_kernel` (DAGs up to 64 nodes).

    Notes
    -----
    The search frontier never contains a state twice with a worse key, and
    states are closed permanently at their first pop (correct because all
    move costs are non-negative and the bound is consistent).
    """
    terms = kernel.bound_terms(instance.costs, heuristic)
    if engine == "numpy":
        from .batch_kernel import astar_batch

        result = astar_batch(
            instance,
            budget=budget,
            return_schedule=return_schedule,
            heuristic=heuristic,
        )
    elif engine == "bits":
        result = kernel.astar_bits(
            instance,
            budget=budget,
            return_schedule=return_schedule,
            heuristic=heuristic,
        )
    else:
        raise ValueError(
            f"unknown engine {engine!r}; valid engines: 'bits' (default "
            f"bitmask kernel), 'numpy' (batched frontier)"
        )
    return OptimalResult(
        result.cost,
        Schedule(result.moves) if result.moves is not None else None,
        result.expanded,
        result.generated,
        "+".join(terms) or "none",
    )


def decide_pebbling(
    instance: PebblingInstance,
    cost_budget: Optional[Fraction] = None,
    *,
    budget: int = 2_000_000,
) -> bool:
    """The decision problem of Section 1: does a pebbling of cost <= C exist?

    ``cost_budget`` defaults to the instance's own ``cost_budget``.
    """
    c = cost_budget if cost_budget is not None else instance.cost_budget
    if c is None:
        raise ValueError("no cost budget given")
    result = solve_optimal(instance, budget=budget, return_schedule=False)
    return result.cost <= Fraction(c)
