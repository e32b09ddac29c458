"""Theorem 4: greedy pebbling can be Theta~(sqrt n) to Theta~(n) worse than
the optimum (Figure 8).

Construction.  A triangular grid of input groups at positions (x, y) with
1 <= x, y and x + y <= l + 1 (column x, row y), plus an entry group S0:

* groups on the same *diagonal* x + y = d share k' common nodes — almost
  their whole content;
* the target t_{x,y} of group (x, y) is a member of group (x, y+1): each
  column must be processed bottom-to-top;
* *misguidance* intersections steer a greedy strategy: S0 shares a node
  with group (l, 1), and the top of column x shares a node with the bottom
  of column x-1 (x = 2..l);
* S0 has one target inside every bottom group (x, 1), so every valid
  pebbling starts with S0;
* every group is padded with fillers to a common size k; R = k + 1.

A greedy strategy (visit the enabled group holding the most red pebbles —
the group-level form of every Section 8 rule) follows the misguidance
trail: columns right to left, each bottom to top.  Every diagonal is then
visited at widely separated times, so its k' common nodes are stored and
re-loaded once per group — cost 2k' * Theta(l^2).  The optimum instead
walks diagonals (bottom of column x, then up the diagonal to (1, x)),
keeps commons red exactly while needed, and pays only O(1) per group on
the few non-common nodes — cost (k - k') * Theta(l^2).

With k' = Theta~(n / l), l = omega(1) and k - k' = O(1) this yields the
paper's Theta~(n) separation (Theta~(sqrt n) after the constant-indegree
transformation, which our benchmark reports alongside).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from ..core.instance import PebblingInstance
from ..core.models import Model
from ..core.schedule import Schedule
from ..core.simulator import PebblingSimulator
from .common import GroupSystem, GroupVisitor, InputGroup

__all__ = [
    "GreedyGridConstruction",
    "greedy_grid_construction",
    "grid_group_greedy",
]

GroupKey = Tuple[object, ...]  # ("S0",) or ("g", x, y)


@dataclass(frozen=True)
class GreedyGridConstruction:
    """The Theorem 4 grid and its bookkeeping."""

    l: int
    k: int
    k_common: int
    system: GroupSystem

    @property
    def red_limit(self) -> int:
        return self.k + 1

    @property
    def n_groups(self) -> int:
        return 1 + self.l * (self.l + 1) // 2

    def instance(self, model: "Model | str" = Model.ONESHOT) -> PebblingInstance:
        return PebblingInstance(
            dag=self.system.dag, model=Model.parse(model), red_limit=self.red_limit
        )

    # ------------------------------------------------------------------ #
    # canonical orders
    # ------------------------------------------------------------------ #

    def optimal_sequence(self) -> List[GroupKey]:
        """The paper's diagonal sweep: S0, then for each x the bottom
        group (x, 1) followed by the diagonal up to (1, x)."""
        seq: List[GroupKey] = [("S0",)]
        for x in range(1, self.l + 1):
            cx, cy = x, 1
            while cx >= 1:
                seq.append(("g", cx, cy))
                cx -= 1
                cy += 1
        return seq

    def predicted_greedy_sequence(self) -> List[GroupKey]:
        """The trajectory Theorem 4 predicts for a greedy strategy:
        columns right-to-left, each bottom-to-top."""
        seq: List[GroupKey] = [("S0",)]
        for x in range(self.l, 0, -1):
            for y in range(1, self.l + 2 - x):
                seq.append(("g", x, y))
        return seq

    # ------------------------------------------------------------------ #
    # costs
    # ------------------------------------------------------------------ #

    def cost_of_sequence(
        self, sequence: Sequence[GroupKey], model: "Model | str" = Model.ONESHOT
    ) -> Fraction:
        sched = self.system.emit_visit_schedule(sequence, model)
        return PebblingSimulator(self.instance(model)).run(
            sched, require_complete=True
        ).cost

    def schedule_for_sequence(
        self, sequence: Sequence[GroupKey], model: "Model | str" = Model.ONESHOT
    ) -> Schedule:
        return self.system.emit_visit_schedule(sequence, model)


def greedy_grid_construction(
    l: int, k_common: int, *, k: Optional[int] = None
) -> GreedyGridConstruction:
    """Build the Theorem 4 grid with ``l`` columns and ``k_common`` common
    nodes per diagonal.  ``k`` defaults to ``k_common + 4`` (the minimum
    padding that fits dependency, misguidance and entry nodes, k' = k-O(1)
    as the paper chooses)."""
    if l < 2:
        raise ValueError("l must be >= 2")
    if k_common < 1:
        raise ValueError("k_common must be >= 1")
    if k is None:
        k = k_common + 4
    if k < k_common + 3:
        raise ValueError("k must be at least k_common + 3")

    groups: List[InputGroup] = []

    def mis(x: int) -> GroupKey:
        return ("mis", x)

    # S0: k-1 private members + the misguidance node shared with (l, 1);
    # targets s0t_x for each bottom group, (l) computed last so its red
    # pebble also points the greedy at column l.
    s0_members = tuple(("s0m", i) for i in range(k - 1)) + (mis(l + 1),)
    s0_targets = tuple(("s0t", x) for x in range(1, l + 1))
    groups.append(InputGroup(id=("S0",), members=s0_members, targets=s0_targets))

    for x in range(1, l + 1):
        for y in range(1, l + 2 - x):
            members: List[object] = [
                ("D", x + y, i) for i in range(k_common)
            ]
            if y == 1:
                members.append(("s0t", x))
            else:
                members.append(("t", x, y - 1))
            is_top = x + y == l + 1
            if is_top and x >= 2:
                # top of column x shares a node with the bottom of col x-1
                members.append(mis(x))
            if y == 1 and x + 1 <= l:
                members.append(mis(x + 1))
            if y == 1 and x == l:
                members.append(mis(l + 1))  # the S0 intersection
            while len(members) < k:
                members.append(("fill", x, y, len(members)))
            assert len(members) == k, (x, y, len(members))
            groups.append(
                InputGroup(
                    id=("g", x, y),
                    members=tuple(members),
                    targets=(("t", x, y),),
                )
            )

    system = GroupSystem(groups)
    return GreedyGridConstruction(l=l, k=k, k_common=k_common, system=system)


def grid_group_greedy(
    construction: GreedyGridConstruction,
    model: "Model | str" = Model.ONESHOT,
) -> Tuple[Schedule, List[GroupKey]]:
    """Run the group-level greedy strategy on the grid.

    At every step, among the *enabled* groups (all produced members
    computed), visit the one with the most red pebbles on its members —
    the group-level behaviour all three Section 8 rules share on
    uniform-size groups.  Returns the emitted schedule and the visit
    sequence actually taken; Theorem 4 predicts the misguided column walk
    of :meth:`GreedyGridConstruction.predicted_greedy_sequence`.
    """
    visitor = GroupVisitor(construction.system, model)
    sequence: List[GroupKey] = []
    while visitor.unvisited:
        enabled = visitor.enabled_groups()
        assert enabled, "grid has no deadlock-free order left (bug)"
        best = max(enabled, key=lambda g: (visitor.red_members(g), repr(g)))
        visitor.visit(best)
        sequence.append(best)
    return visitor.schedule(), sequence
