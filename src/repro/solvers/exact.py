"""Exact optimal pebbling via uniform-cost search over pebbling states.

The state graph has one vertex per pebbling state and one weighted edge
per legal move; the optimal pebbling cost is the shortest distance from
the empty board to any complete state.  Dijkstra over this graph is
exponential in general — the paper proves the problem NP-hard (Theorem 2)
and PSPACE-complete in base [Demaine & Liu] — so this solver is the
*ground-truth oracle for small instances* that every other component is
calibrated against.

Three engines implement the same contract:

* ``engine="bits"`` (default): the shared bitmask kernel of
  :mod:`repro.solvers.kernel` — one packed int per state, integer costs,
  delete-normalized successors and the one best-first driver every
  packed-key game shares.  This is what raised the feasible instance
  sizes; see ``tests/benchmarks/test_perf.py``.
* ``engine="numpy"``: the batched frontier engine of
  :mod:`repro.solvers.batch_kernel` over the same edge alphabet, for
  DAGs of up to 64 nodes.
* ``engine="legacy"``: the original frozenset-based search over
  :class:`~repro.core.state.PebblingState`, kept verbatim as the slow
  reference implementation.  The golden-optima suite
  (``tests/solvers/test_golden_optima.py``) pins that the engines return
  identical optima on classic instances.

Safe prunes applied (all cost-preserving, see the test-suite):

* blue pebbles are never deleted (a blue pebble occupies no red slot and
  never blocks a move, so removing it can only destroy options);
* zero-cost moves are explored first through the priority queue ordering,
  which keeps the frontier small on gadget DAGs.

For the base model, optimal pebblings may be superpolynomially long
(Section 4) but never *cheaper* than shorter ones below any fixed budget;
uniform-cost search handles zero-cost cycles because visited states are
closed at their first settled cost.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from ..core.bitstate import iter_bits
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
    "compcost_heuristic",
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
    """

    cost: Fraction
    schedule: Optional[Schedule]
    expanded: int
    generated: int

    @property
    def length(self) -> Optional[int]:
        """Number of moves of the reconstructed optimal pebbling."""
        return len(self.schedule) if self.schedule is not None else None


Heuristic = Callable[[PebblingState, PebblingInstance], Fraction]


def compcost_heuristic(state: PebblingState, instance: PebblingInstance) -> Fraction:
    """Admissible heuristic for compcost: every still-uncomputed node that
    some unpebbled sink transitively needs must be computed at least once,
    at epsilon each."""
    dag = instance.dag
    eps = instance.costs.compute_cost
    if eps == 0:
        return Fraction(0)
    needed = set()
    for s in dag.sinks:
        if not state.has_pebble(s):
            needed.add(s)
            needed.update(dag.ancestors(s))
    missing = sum(1 for v in needed if v not in state.computed and dag.predecessors(v))
    return eps * missing


def _compile_compcost(ex: "kernel.Expander") -> Callable[[int], int]:
    """Bit-native form of :func:`compcost_heuristic` over packed keys."""
    layout = ex.layout
    n = ex.n
    compute_i = ex.compute_i
    nonsource_mask = layout.full_mask & ~layout.source_mask
    sink_bits = tuple(iter_bits(layout.sink_mask))
    closures = tuple(layout.ancestor_closure_of_sink(s) for s in sink_bits)

    def h(key: int) -> int:
        if compute_i == 0:
            return 0
        # bit s of red | blue; the low n bits of key are the computed mask
        pebbled = (key >> n) | (key >> 2 * n)
        needed = 0
        for s, closure in zip(sink_bits, closures):
            if not pebbled >> s & 1:
                needed |= closure
        return compute_i * (needed & ~key & nonsource_mask).bit_count()

    return h


kernel.register_bit_heuristic(compcost_heuristic, _compile_compcost)


def solve_optimal(
    instance: PebblingInstance,
    *,
    budget: int = 2_000_000,
    return_schedule: bool = True,
    heuristic: Optional[Heuristic] = None,
    engine: str = "bits",
) -> OptimalResult:
    """Find an optimal pebbling by (heuristic-guided) uniform-cost search.

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
        Optional admissible heuristic ``h(state, instance)`` turning the
        search into A*.  :func:`compcost_heuristic` is provided (and runs
        bit-natively under the default engine).
    engine:
        ``"bits"`` for the shared bitmask kernel (default), ``"legacy"``
        for the frozenset reference implementation, or ``"numpy"`` for
        the batched frontier engine of :mod:`repro.solvers.batch_kernel`
        (DAGs up to 64 nodes).

    Notes
    -----
    The search frontier never contains a state twice with a worse key, and
    states are closed permanently at their first pop (correct because all
    move costs are non-negative).
    """
    if engine == "legacy":
        return solve_optimal_legacy(
            instance,
            budget=budget,
            return_schedule=return_schedule,
            heuristic=heuristic,
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
    return OptimalResult(
        result.cost,
        kernel.moves_to_schedule(result.moves),
        result.expanded,
        result.generated,
    )


def solve_optimal_legacy(
    instance: PebblingInstance,
    *,
    budget: int = 2_000_000,
    return_schedule: bool = True,
    heuristic: Optional[Heuristic] = None,
) -> OptimalResult:
    """The original frozenset-based search, kept as the reference oracle.

    Same contract as :func:`solve_optimal`.  Differential and golden tests
    compare the two engines; use this path when debugging the kernel —
    states print as readable node sets.
    """
    dag: ComputationDAG = instance.dag
    costs = instance.costs
    red_limit = instance.red_limit
    start = PebblingState.initial()

    if start.is_complete(dag):  # DAG with no sinks (empty DAG)
        return OptimalResult(Fraction(0), Schedule(), 0, 0)

    h0 = heuristic(start, instance) if heuristic else Fraction(0)
    counter = itertools.count()
    frontier: List[Tuple[Fraction, int, PebblingState]] = [(h0, next(counter), start)]
    best_g: Dict[PebblingState, Fraction] = {start: Fraction(0)}
    parents: Dict[PebblingState, Tuple[PebblingState, Move]] = {}
    closed = set()
    expanded = 0
    generated = 0

    while frontier:
        f, _, state = heapq.heappop(frontier)
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
                nh = heuristic(nxt, instance) if heuristic else Fraction(0)
                heapq.heappush(frontier, (ng + nh, next(counter), nxt))
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
