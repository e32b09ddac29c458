"""The pebbling simulator: executes and prices schedules.

:class:`PebblingSimulator` is the authoritative referee for the game.  All
higher layers (heuristics, strategy emitters, reductions) ultimately
justify their cost claims by running their schedules through it, and the
test-suite cross-checks every analytic cost formula against it.

Both APIs run on :func:`~repro.core.bitstate.apply_move_bits`.  Schedule
execution (:meth:`PebblingSimulator.run`) keeps the board as three ints
for the whole run and decodes only the final state back to a
:class:`PebblingState`; the stepping API (:meth:`PebblingSimulator.step`,
and :meth:`~PebblingSimulator.trace` over it) takes and returns public
``PebblingState`` objects, encoding at the edge and decoding the state
that comes back.

Pricing.  :meth:`~PebblingSimulator.run` counts the moves of each kind
(by ``Move.kind_id``) and prices each kind once, when the run ends: a
kind has one price under a cost model, the one the transition function
returns for every move of it, so the ``Fraction`` totals equal a
move-by-move sum exactly without adding a ``Fraction`` per move.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Tuple

from .bitstate import BitState, apply_move_bits, bit_layout
from .dag import ComputationDAG
from .errors import IncompletePebblingError
from .instance import PebblingInstance
from .moves import Move
from .schedule import CostBreakdown, Schedule
from .state import PebblingState

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
    the empty board.  The stepping API (:meth:`initial_state` /
    :meth:`step`) serves callers that need incremental execution.
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

        ``state`` holds nodes of this instance's DAG only (it is encoded
        under the DAG's :class:`~repro.core.bitstate.BitLayout`).  Raises
        :class:`~repro.core.errors.IllegalMoveError` (or a subclass) if the
        move is illegal in ``state`` under this instance's model.
        """
        layout = bit_layout(self.dag)
        bits, cost = apply_move_bits(
            layout, layout.encode_state(state), move, self.costs,
            self.red_limit, step_index,
        )
        return layout.decode_state(bits), cost

    def is_complete(self, state: PebblingState) -> bool:
        return state.is_complete(self.dag)

    # ------------------------------------------------------------------ #
    # schedule execution
    # ------------------------------------------------------------------ #

    def run(
        self,
        schedule: "Schedule | Iterable[Move]",
        *,
        require_complete: bool = False,
    ) -> ExecutionResult:
        """Execute a full schedule from the empty board and return its
        priced outcome.

        Parameters
        ----------
        schedule:
            The moves to execute, in order.
        require_complete:
            If True, raise :class:`IncompletePebblingError` when the final
            state leaves some sink unpebbled.
        """
        layout = bit_layout(self.dag)
        costs = self.costs
        red_limit = self.red_limit
        bits = BitState.initial()
        counts = [0, 0, 0, 0]
        max_red = 0

        for i, move in enumerate(schedule):
            bits, _ = apply_move_bits(layout, bits, move, costs, red_limit, i)
            counts[move.kind_id] += 1
            reds = bits.red.bit_count()
            if reds > max_red:
                max_red = reds

        state = layout.decode_state(bits)
        complete = self.is_complete(state)
        if require_complete and not complete:
            missing = [s for s in self.dag.sinks if not state.has_pebble(s)]
            raise IncompletePebblingError(missing)

        # a kind has one price under a cost model (see the module docstring)
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
