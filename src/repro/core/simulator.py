"""The pebbling simulator: executes and prices schedules.

:class:`PebblingSimulator` is the authoritative referee for the game.  All
higher layers (heuristics, strategy emitters, reductions) ultimately
justify their cost claims by running their schedules through it, and the
test-suite cross-checks every analytic cost formula against it.

Schedule execution (:meth:`PebblingSimulator.run`) operates natively on
the bitmask encoding of :mod:`repro.core.bitstate`: the board is three
ints for the whole run and only the final state is decoded back to a
:class:`PebblingState`.  The stepping API (:meth:`PebblingSimulator.step`)
keeps the legacy frozenset transition — it takes and returns public
``PebblingState`` objects, so converting per call would only add work;
it also preserves an independent implementation of the rules at the API
edge.

Pricing.  Both execution paths count the moves of each kind (by
``Move.kind_id``) and price each kind once, when the run ends: a kind has
one price under a cost model, the one the transition functions return
for every move of it, so the ``Fraction`` totals equal a move-by-move sum
exactly without adding a ``Fraction`` per move.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Tuple

from .bitstate import apply_move_bits, bit_layout
from .dag import ComputationDAG
from .errors import IncompletePebblingError
from .instance import PebblingInstance
from .moves import Move
from .schedule import CostBreakdown, Schedule
from .state import PebblingState, apply_move

__all__ = ["ExecutionResult", "PebblingSimulator"]


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of executing a schedule.

    Attributes
    ----------
    cost:
        Total cost under the instance's model (transfers + computes + deletes,
        with the model's prices).
    breakdown:
        Per-operation-kind counts and costs.
    final_state:
        Board state after the last move.
    steps:
        Number of moves executed.
    complete:
        Whether the final state pebbles every sink.
    max_red_in_use:
        Peak number of red pebbles observed (<= R by construction).
    """

    cost: Fraction
    breakdown: CostBreakdown
    final_state: PebblingState
    steps: int
    complete: bool
    max_red_in_use: int

    @property
    def transfer_cost(self) -> Fraction:
        """Cost counting only Steps 1 and 2 (the base/oneshot/nodel objective)."""
        return self.breakdown.transfer_cost


class PebblingSimulator:
    """Executes move sequences for one :class:`PebblingInstance`.

    The simulator is stateless between calls; each :meth:`run` starts from
    the empty board (or an explicit ``initial_state``).  The stepping API
    (:meth:`initial_state` / :meth:`step`) serves solvers that need
    incremental execution.
    """

    def __init__(self, instance: PebblingInstance) -> None:
        self.instance = instance
        self.dag: ComputationDAG = instance.dag
        self.costs = instance.costs
        self.red_limit = instance.red_limit

    # ------------------------------------------------------------------ #
    # stepping API
    # ------------------------------------------------------------------ #

    def initial_state(self) -> PebblingState:
        return PebblingState.initial()

    def step(
        self, state: PebblingState, move: Move, step_index: Optional[int] = None
    ) -> Tuple[PebblingState, Fraction]:
        """Apply one move, returning ``(new_state, move_cost)``.

        Raises :class:`~repro.core.errors.IllegalMoveError` (or a subclass)
        if the move is illegal in ``state`` under this instance's model.
        """
        return apply_move(
            state, move, self.dag, self.costs, self.red_limit, step_index
        )

    def is_complete(self, state: PebblingState) -> bool:
        return state.is_complete(self.dag)

    # ------------------------------------------------------------------ #
    # schedule execution
    # ------------------------------------------------------------------ #

    def run(
        self,
        schedule: "Schedule | Iterable[Move]",
        *,
        initial_state: Optional[PebblingState] = None,
        require_complete: bool = False,
    ) -> ExecutionResult:
        """Execute a full schedule and return its priced outcome.

        Parameters
        ----------
        schedule:
            The moves to execute, in order.
        initial_state:
            Board to start from (default: empty).
        require_complete:
            If True, raise :class:`IncompletePebblingError` when the final
            state leaves some sink unpebbled.
        """
        start = initial_state if initial_state is not None else PebblingState.initial()
        layout = bit_layout(self.dag)
        index = layout.index
        if any(v not in index for v in start.red | start.blue | start.computed):
            # states mentioning nodes outside the DAG cannot be encoded;
            # fall back to the legacy stepper (moves on such nodes would be
            # rejected either way, but the foreign pebbles must survive)
            return self._run_legacy(
                schedule, start, require_complete=require_complete
            )

        costs = self.costs
        red_limit = self.red_limit
        bits = layout.encode_state(start)
        counts = [0, 0, 0, 0]
        max_red = bits.red.bit_count()

        for i, move in enumerate(schedule):
            bits, _ = apply_move_bits(layout, bits, move, costs, red_limit, i)
            counts[move.kind_id] += 1
            reds = bits.red.bit_count()
            if reds > max_red:
                max_red = reds

        return self._result(
            layout.decode_state(bits), counts, max_red, require_complete
        )

    def _run_legacy(
        self,
        schedule: "Schedule | Iterable[Move]",
        state: PebblingState,
        *,
        require_complete: bool,
    ) -> ExecutionResult:
        """Frozenset-based execution path (states with out-of-DAG nodes)."""
        counts = [0, 0, 0, 0]
        max_red = len(state.red)

        for i, move in enumerate(schedule):
            state, _ = self.step(state, move, i)
            counts[move.kind_id] += 1
            if len(state.red) > max_red:
                max_red = len(state.red)

        return self._result(state, counts, max_red, require_complete)

    def _result(
        self,
        state: PebblingState,
        counts: List[int],
        max_red: int,
        require_complete: bool,
    ) -> ExecutionResult:
        """Check a finished run and price it from its move counts, indexed
        by ``kind_id`` (see the module docstring)."""
        complete = self.is_complete(state)
        if require_complete and not complete:
            missing = [s for s in self.dag.sinks if not state.has_pebble(s)]
            raise IncompletePebblingError(missing)

        costs = self.costs
        b = CostBreakdown()
        b.loads, b.stores, b.computes, b.deletes = counts
        b.load_cost = costs.load_cost * b.loads
        b.store_cost = costs.store_cost * b.stores
        b.compute_cost = costs.compute_cost * b.computes
        b.delete_cost = costs.delete_cost * b.deletes
        return ExecutionResult(
            cost=b.total_cost,
            breakdown=b,
            final_state=state,
            steps=sum(counts),
            complete=complete,
            max_red_in_use=max_red,
        )

    def cost_of(self, schedule: "Schedule | Iterable[Move]") -> Fraction:
        """Cost of a schedule that must completely pebble the DAG."""
        return self.run(schedule, require_complete=True).cost

    # ------------------------------------------------------------------ #
    # tracing
    # ------------------------------------------------------------------ #

    def trace(
        self, schedule: "Schedule | Iterable[Move]"
    ) -> List[Tuple[Move, PebblingState, Fraction]]:
        """Execute and return ``(move, state_after, cumulative_cost)`` triples.

        Intended for debugging and for the narrative examples; costs are
        cumulative so a trace line shows the running total.
        """
        state = PebblingState.initial()
        total = Fraction(0)
        out: List[Tuple[Move, PebblingState, Fraction]] = []
        for i, move in enumerate(schedule):
            state, cost = self.step(state, move, i)
            total += cost
            out.append((move, state, total))
        return out
