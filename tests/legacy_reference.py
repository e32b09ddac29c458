"""The frozenset rule sets and uniform-cost search, kept as a test oracle.

This is the straightforward transcription of Section 1's four moves and
Table 1's prices onto :class:`~repro.core.state.PebblingState` node
sets, and a uniform-cost search over it that shares no code with the
bitmask kernels; and the same transcription of the multi-level rules
onto the per-level node sets of
:class:`~repro.multilevel.game.MultilevelState`.  The package does not
use them; tests compare against them:

* the golden optima (``tests/solvers/test_golden_optima.py``) and the
  multi-level equivalence check are re-certified by
  :func:`solve_optimal_legacy`;
* ``tests/solvers/test_engine_differential.py`` locks the ``bits``
  engine to it on random DAGs, outside the delete-normalized move
  alphabet the engines share;
* ``tests/core/test_bitstate_differential.py`` checks
  :func:`repro.core.bitstate.apply_move_bits` against :func:`apply_move`
  move by move;
* ``tests/multilevel/test_bitgame_differential.py`` checks
  :func:`repro.multilevel.bitgame.apply_ml_move_bits` against
  :func:`apply_ml_move` move by move;
* ``tests/benchmarks/test_perf.py`` times the ``bits`` engine against
  :func:`solve_optimal_legacy`.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from typing import Dict, FrozenSet, Iterator, List, Tuple

from repro.core.dag import ComputationDAG, Node
from repro.core.errors import (
    BudgetExceededError,
    CapacityExceededError,
    DeletionForbiddenError,
    IllegalMoveError,
    RecomputationError,
    SolverError,
)
from repro.core.instance import PebblingInstance
from repro.core.models import CostModel
from repro.core.moves import Compute, Delete, Load, Move, Store
from repro.core.schedule import Schedule
from repro.core.state import PebblingState
from repro.multilevel.game import (
    HierarchySpec,
    MLCompute,
    MLDelete,
    MLMove,
    MultilevelState,
)
from repro.solvers.exact import OptimalResult

__all__ = ["apply_ml_move", "apply_move", "legal_moves", "solve_optimal_legacy"]


def apply_move(
    state: PebblingState,
    move: Move,
    dag: ComputationDAG,
    costs: CostModel,
    red_limit: int,
    step: "int | None" = None,
) -> Tuple[PebblingState, Fraction]:
    """Apply one move to a state, returning ``(new_state, cost)``.

    Raises a subclass of :class:`IllegalMoveError` when the move violates
    the rules of the model described by ``costs``:

    * Load needs a blue pebble on the node and a free red slot;
    * Store needs a red pebble on the node;
    * Compute needs every input red, a free red slot, the node not already
      red, and (oneshot) the node never computed before;
    * Delete needs a pebble on the node and is illegal in nodel.
    """
    v = move.node
    if v not in dag:
        raise IllegalMoveError(move, f"node {v!r} is not in the DAG", step)

    if isinstance(move, Load):
        if v not in state.blue:
            raise IllegalMoveError(move, "node holds no blue pebble", step)
        if len(state.red) + 1 > red_limit:
            raise CapacityExceededError(move, red_limit, step)
        return (
            PebblingState(state.red | {v}, state.blue - {v}, state.computed),
            costs.load_cost,
        )

    if isinstance(move, Store):
        if v not in state.red:
            raise IllegalMoveError(move, "node holds no red pebble", step)
        return (
            PebblingState(state.red - {v}, state.blue | {v}, state.computed),
            costs.store_cost,
        )

    if isinstance(move, Compute):
        if v in state.red:
            raise IllegalMoveError(move, "node already holds a red pebble", step)
        if not costs.recompute_allowed and v in state.computed:
            raise RecomputationError(move, step)
        missing = [u for u in dag.predecessors(v) if u not in state.red]
        if missing:
            raise IllegalMoveError(
                move, f"input(s) without a red pebble: {missing[:5]!r}", step
            )
        if len(state.red) + 1 > red_limit:
            raise CapacityExceededError(move, red_limit, step)
        # Computing onto a node that currently holds a blue pebble replaces
        # the blue pebble by a red one (explicitly allowed in nodel:
        # "Step 3 still allows us to replace a blue pebble by a red one").
        return (
            PebblingState(state.red | {v}, state.blue - {v}, state.computed | {v}),
            costs.compute_cost,
        )

    if isinstance(move, Delete):
        if not costs.delete_allowed:
            raise DeletionForbiddenError(move, step)
        if v in state.red:
            return (
                PebblingState(state.red - {v}, state.blue, state.computed),
                costs.delete_cost,
            )
        if v in state.blue:
            return (
                PebblingState(state.red, state.blue - {v}, state.computed),
                costs.delete_cost,
            )
        raise IllegalMoveError(move, "node holds no pebble", step)

    raise IllegalMoveError(move, f"unknown move type {type(move).__name__}", step)


def legal_moves(
    state: PebblingState,
    dag: ComputationDAG,
    costs: CostModel,
    red_limit: int,
    *,
    prune_delete_blue: bool = True,
) -> Iterator[Move]:
    """Enumerate every move legal in ``state``.

    ``prune_delete_blue`` skips deleting blue pebbles: a blue pebble never
    occupies a red slot and never blocks any move, so removing it cannot
    reduce the cost of any continuation — any schedule using Delete(blue)
    maps move-for-move to one that omits it at equal cost.  Exact solvers
    rely on this cost-preserving prune; set it to ``False`` to enumerate
    the literal rule set.
    """
    has_red_slot = len(state.red) < red_limit

    if has_red_slot:
        for v in state.blue:
            yield Load(v)

    for v in state.red:
        yield Store(v)

    if has_red_slot:
        for v in dag:
            if v in state.red:
                continue
            if not costs.recompute_allowed and v in state.computed:
                continue
            if all(u in state.red for u in dag.predecessors(v)):
                yield Compute(v)

    if costs.delete_allowed:
        for v in state.red:
            yield Delete(v)
        if not prune_delete_blue:
            for v in state.blue:
                yield Delete(v)


def solve_optimal_legacy(
    instance: PebblingInstance,
    *,
    budget: int = 2_000_000,
    return_schedule: bool = True,
) -> OptimalResult:
    """The original frozenset-based search, kept as the reference oracle.

    Uniform-cost search under the contract of
    :func:`repro.solvers.solve_optimal`; states print as readable node
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


# ---------------------------------------------------------------------- #
# the multi-level game
# ---------------------------------------------------------------------- #


def _replace(
    state: MultilevelState, level: int, new: FrozenSet[Node]
) -> MultilevelState:
    parts = list(state.levels)
    parts[level] = new
    return MultilevelState(parts)


def apply_ml_move(
    state: MultilevelState, move, dag: ComputationDAG, spec: HierarchySpec
) -> Tuple[MultilevelState, Fraction]:
    """Apply one multi-level move to a state, returning ``(new_state, cost)``.

    Raises :class:`IllegalMoveError` with the same messages as
    :func:`repro.multilevel.bitgame.apply_ml_move_bits`.
    """
    if isinstance(move, MLCompute):
        v = move.node
        if v not in dag:
            raise IllegalMoveError(move, "node not in DAG")
        if v in state.levels[0]:
            raise IllegalMoveError(move, "node already in fastest memory")
        missing = [
            u for u in dag.predecessors(v) if u not in state.levels[0]
        ]
        if missing:
            raise IllegalMoveError(
                move, f"inputs not in fastest memory: {missing[:3]!r}"
            )
        cap = spec.capacities[0]
        if cap is not None and len(state.levels[0]) + 1 > cap:
            raise IllegalMoveError(move, f"level 0 capacity {cap} exceeded")
        new = state
        old_level = state.level_of(v)
        if old_level is not None:
            new = _replace(new, old_level, new.levels[old_level] - {v})
        new = _replace(new, 0, new.levels[0] | {v})
        return new, spec.compute_cost

    if isinstance(move, MLMove):
        v = move.node
        cur = state.level_of(v)
        if cur is None:
            raise IllegalMoveError(move, "node holds no pebble")
        to = move.to_level
        if not (0 <= to < spec.levels):
            raise IllegalMoveError(move, f"no such level {to}")
        if abs(to - cur) != 1:
            raise IllegalMoveError(
                move, f"levels {cur} -> {to} are not adjacent"
            )
        cap = spec.capacities[to]
        if cap is not None and len(state.levels[to]) + 1 > cap:
            raise IllegalMoveError(move, f"level {to} capacity {cap} exceeded")
        new = _replace(state, cur, state.levels[cur] - {v})
        new = _replace(new, to, new.levels[to] | {v})
        return new, spec.transfer_costs[min(cur, to)]

    if isinstance(move, MLDelete):
        v = move.node
        cur = state.level_of(v)
        if cur is None:
            raise IllegalMoveError(move, "node holds no pebble")
        return _replace(state, cur, state.levels[cur] - {v}), Fraction(0)

    raise IllegalMoveError(move, f"unknown move {type(move).__name__}")
