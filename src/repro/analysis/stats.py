"""Schedule statistics: where does the I/O cost of a pebbling come from?

Practical tooling for analysing schedules produced by any component:

* per-node transfer counts (which values thrash);
* working-set profile (red pebbles in use over time);
* reuse distances (moves between consecutive uses of a value, the classic
  locality metric cache analysis uses);
* a one-call summary combining them.

All statistics replay the schedule through the simulator, so they are
exact and double as legality checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.dag import Node
from ..core.instance import PebblingInstance
from ..core.moves import Compute, Load, Move, Store
from ..core.simulator import PebblingSimulator

__all__ = ["ScheduleStats", "schedule_stats"]


@dataclass(frozen=True)
class ScheduleStats:
    """Aggregated statistics of one schedule.

    Attributes
    ----------
    cost:
        Total cost under the instance's model.
    transfers_by_node:
        Load+Store count per node (only nodes with at least one transfer).
    working_set:
        Number of red pebbles after every move.
    reuse_distances:
        For each (Load/Compute) *use* of a value — a Compute consuming it
        as an input, or a Load re-acquiring it into fast memory — the
        number of moves since that value was last used; first uses are
        excluded.
    hottest_nodes:
        Nodes sorted by transfer count, descending (top 10).
    """

    cost: Fraction
    transfers_by_node: Dict[Node, int]
    working_set: Tuple[int, ...]
    reuse_distances: Tuple[int, ...]
    hottest_nodes: Tuple[Tuple[Node, int], ...]

    @property
    def peak_working_set(self) -> int:
        return max(self.working_set, default=0)

    @property
    def mean_working_set(self) -> float:
        return (
            sum(self.working_set) / len(self.working_set)
            if self.working_set
            else 0.0
        )

    @property
    def total_transfers(self) -> int:
        return sum(self.transfers_by_node.values())

    @property
    def mean_reuse_distance(self) -> Optional[float]:
        if not self.reuse_distances:
            return None
        return sum(self.reuse_distances) / len(self.reuse_distances)


def schedule_stats(
    instance: PebblingInstance, schedule: Iterable[Move]
) -> ScheduleStats:
    """Replay ``schedule`` and collect :class:`ScheduleStats`."""
    dag = instance.dag
    sim = PebblingSimulator(instance)

    transfers: Dict[Node, int] = {}
    working: List[int] = []
    reuse: List[int] = []
    last_input_use: Dict[Node, int] = {}

    state = sim.initial_state()
    total = Fraction(0)
    for i, move in enumerate(schedule):
        if isinstance(move, Compute):
            # every input of the computed node is being *used* now
            for p in dag.predecessors(move.node):
                if p in last_input_use:
                    reuse.append(i - last_input_use[p])
                last_input_use[p] = i
        if isinstance(move, Load):
            # a Load re-acquires the value into fast memory: that is a use
            # of the value too (the docstring's "(Load/Compute) uses")
            if move.node in last_input_use:
                reuse.append(i - last_input_use[move.node])
            last_input_use[move.node] = i
        if isinstance(move, (Load, Store)):
            transfers[move.node] = transfers.get(move.node, 0) + 1
        state, cost = sim.step(state, move, i)
        total += cost
        working.append(len(state.red))

    hottest = tuple(
        sorted(transfers.items(), key=lambda kv: (-kv[1], repr(kv[0])))[:10]
    )
    return ScheduleStats(
        cost=total,
        transfers_by_node=transfers,
        working_set=tuple(working),
        reuse_distances=tuple(reuse),
        hottest_nodes=hottest,
    )
