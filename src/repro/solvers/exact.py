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
epsilon per needed, uncomputed non-source when computation is priced
(compcost).  Base and nodel get no bound; ``heuristic=None`` runs
uniform-cost search.  :attr:`OptimalResult.heuristic` names the terms.

Three engines implement the same contract:

* ``engine="bits"`` (default): the shared bitmask kernel of
  :mod:`repro.solvers.kernel` — one packed int per state, integer costs,
  delete-normalized successors and the one best-first driver every
  packed-key game shares.  This is what raised the feasible instance
  sizes; see ``tests/benchmarks/test_perf.py``.
* ``engine="numpy"``: the batched frontier engine of
  :mod:`repro.solvers.batch_kernel` over the same edge alphabet, for
  DAGs of up to 64 nodes.
* ``engine="legacy"``: the original frozenset-based uniform-cost search
  over :class:`~repro.core.state.PebblingState`, kept verbatim as the slow
  reference implementation; it runs no bound.  The golden-optima suite
  (``tests/solvers/test_golden_optima.py``) pins that the engines return
  identical optima on classic instances.

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

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..core.dag import ComputationDAG
from ..core.errors import BudgetExceededError, SolverError
from ..core.instance import PebblingInstance
from ..core.moves import Move
from ..core.schedule import Schedule
from ..core.state import PebblingState, apply_move, legal_moves
from . import kernel

__all__ = [
    "OptimalResult",
    "solve_optimal",
    "solve_optimal_legacy",
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
        search.  Any other value raises :class:`ValueError`.  The
        ``legacy`` engine always runs uniform-cost search.
    engine:
        ``"bits"`` for the shared bitmask kernel (default), ``"legacy"``
        for the frozenset reference implementation, or ``"numpy"`` for
        the batched frontier engine of :mod:`repro.solvers.batch_kernel`
        (DAGs up to 64 nodes).

    Notes
    -----
    The search frontier never contains a state twice with a worse key, and
    states are closed permanently at their first pop (correct because all
    move costs are non-negative and the bound is consistent).
    """
    terms = kernel.bound_terms(instance.costs, heuristic)
    if engine == "legacy":
        return solve_optimal_legacy(
            instance, budget=budget, return_schedule=return_schedule
        )
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
            f"bitmask kernel), 'legacy' (frozenset reference), 'numpy' "
            f"(batched frontier)"
        )
    return optimal_result(result, terms)


def optimal_result(
    result: "kernel.KernelResult", terms: Tuple[str, ...]
) -> OptimalResult:
    """Wrap a kernel result that ran under the bound ``terms``."""
    return OptimalResult(
        result.cost,
        kernel.moves_to_schedule(result.moves),
        result.expanded,
        result.generated,
        "+".join(terms) or "none",
    )


def solve_optimal_legacy(
    instance: PebblingInstance,
    *,
    budget: int = 2_000_000,
    return_schedule: bool = True,
) -> OptimalResult:
    """The original frozenset-based search, kept as the reference oracle.

    Uniform-cost search under the contract of :func:`solve_optimal`.
    Differential and golden tests compare the engines against it; use
    this path when debugging the kernel — states print as readable node
    sets.
    """
    dag: ComputationDAG = instance.dag
    costs = instance.costs
    red_limit = instance.red_limit
    start = PebblingState.initial()

    if start.is_complete(dag):  # DAG with no sinks (empty DAG)
        return OptimalResult(Fraction(0), Schedule(), 0, 0)

    counter = itertools.count()
    frontier: List[Tuple[Fraction, int, PebblingState]] = [
        (Fraction(0), next(counter), start)
    ]
    best_g: Dict[PebblingState, Fraction] = {start: Fraction(0)}
    parents: Dict[PebblingState, Tuple[PebblingState, Move]] = {}
    closed = set()
    expanded = 0
    generated = 0

    while frontier:
        _, _, state = heapq.heappop(frontier)
        if state in closed:
            continue
        closed.add(state)
        g = best_g[state]

        if state.is_complete(dag):
            schedule = _reconstruct(parents, state) if return_schedule else None
            return OptimalResult(g, schedule, expanded, generated)

        expanded += 1
        if expanded > budget:
            raise BudgetExceededError(budget)

        for move in legal_moves(state, dag, costs, red_limit):
            nxt, cost = apply_move(state, move, dag, costs, red_limit)
            if nxt in closed:
                continue
            ng = g + cost
            if nxt not in best_g or ng < best_g[nxt]:
                best_g[nxt] = ng
                if return_schedule:
                    parents[nxt] = (state, move)
                heapq.heappush(frontier, (ng, next(counter), nxt))
                generated += 1

    raise SolverError(
        "search space exhausted without reaching a complete state "
        "(this should be impossible for a feasible instance)"
    )


def _reconstruct(
    parents: Dict[PebblingState, Tuple[PebblingState, Move]],
    goal: PebblingState,
) -> Schedule:
    moves: List[Move] = []
    state = goal
    while state in parents:
        state, move = parents[state]
        moves.append(move)
    moves.reverse()
    return Schedule(moves)


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
