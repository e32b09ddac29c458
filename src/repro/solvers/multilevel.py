"""Exact optimal solver for the multi-level pebble game.

The multi-level analogue of :mod:`repro.solvers.kernel`: best-first
search (Dijkstra, or A* under the built-in sink-count heuristic when
computation is priced) over the packed per-level bitmask states of
:mod:`repro.multilevel.bitgame`.  The game is an expander for the
kernel's one driver, :func:`~repro.solvers.kernel.best_first`, and the
kernel's load-bearing ideas carry over:

* **packed integer states** — a board is one mask per level; the L masks
  concatenate into a single int key ``sum(mask_i << (i*n))``, which is
  both the dictionary key and what successors are computed from;
* **integer-scaled costs** — transfer and compute costs are scaled by
  the LCM of their denominators, so priority-queue keys are plain ints,
  not Fractions, and accumulation is exact;
* **delete normalization** — deletes are free, so any schedule can be
  rewritten at equal cost with every delete happening immediately before
  the move that needs the freed slot *at the deleted pebble's level*
  (deletes commute right past moves that do not touch their node or
  their level's capacity; a deleted value that is later recomputed could
  instead have stayed put, since Compute pulls a pebble up from any
  level at the same price; deletes at the unbounded last level never
  unlock capacity and simply drop).  The expander therefore emits plain
  Compute/Move successors while the target level has a slot, and fused
  ``Delete(x at target level); move`` successors when it is full —
  standalone Delete edges disappear from the state graph.

:func:`multilevel_cost_bounds` brackets instances too large to finish:
a truncated search gives the lower end (the smallest f-value still open)
and the :func:`~repro.multilevel.strategies.multilevel_topological_schedule`
baseline prices the upper end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Tuple

from ..core.bitstate import bit_layout
from ..multilevel.game import (
    MLCompute,
    MLDelete,
    MLMove,
    MultilevelInstance,
)
from .kernel import best_first

__all__ = [
    "MultilevelOptimalResult",
    "solve_multilevel_optimal",
    "multilevel_cost_bounds",
]


@dataclass(frozen=True)
class MultilevelOptimalResult:
    """Result of an exact multi-level search.

    Attributes
    ----------
    cost:
        The optimal pebbling cost (a lower bound when ``complete`` is
        False, see ``on_exhausted="bound"``).
    moves:
        One optimal move list (``MLCompute`` / ``MLMove`` / ``MLDelete``
        objects, runnable by :class:`MultilevelSimulator`); None when
        reconstruction was disabled or the search was truncated.
    expanded / generated:
        States popped from / pushed onto the frontier.
    complete:
        False only for truncated ``on_exhausted="bound"`` results.
    """

    cost: Fraction
    moves: Optional[List]
    expanded: int
    generated: int
    complete: bool = True

    @property
    def length(self) -> Optional[int]:
        return len(self.moves) if self.moves is not None else None


class _MLExpander:
    """The multi-level game as an expander for the kernel's driver."""

    __slots__ = (
        "instance",
        "layout",
        "n",
        "levels",
        "caps",
        "scale",
        "transfer_i",
        "compute_i",
        "parent_masks",
        "full_mask",
        "sink_mask",
        "fused",
        "spread",
    )

    def __init__(self, instance: MultilevelInstance) -> None:
        spec = instance.spec
        self.instance = instance
        self.layout = bit_layout(instance.dag)
        self.n = self.layout.n
        self.levels = spec.levels
        self.caps = spec.capacities
        denoms = [c.denominator for c in spec.transfer_costs]
        denoms.append(spec.compute_cost.denominator)
        self.scale = math.lcm(*denoms)
        self.transfer_i = tuple(int(c * self.scale) for c in spec.transfer_costs)
        self.compute_i = int(spec.compute_cost * self.scale)
        self.parent_masks = self.layout.parent_masks
        self.full_mask = self.layout.full_mask
        self.sink_mask = self.layout.sink_mask
        # move codes: Compute(v) = v; Move(v, to) = n + v*L + to; a fused
        # Delete(x); <plain> adds fused*(x+1) on top (see decode_moves)
        self.fused = self.n + self.n * self.levels
        # bit v of every level at once: (1 << v) * spread
        self.spread = sum(1 << (i * self.n) for i in range(self.levels))

    def unscale(self, g: int) -> Fraction:
        return Fraction(g, self.scale)

    def unpebbled_sinks(self, key: int) -> int:
        pebbled = 0
        for i in range(self.levels):
            pebbled |= key >> (i * self.n)
        return self.sink_mask & ~pebbled

    def is_goal(self, key: int) -> bool:
        return self.unpebbled_sinks(key) == 0

    def successors(self, key: int) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(nkey, cost_i, move_code)`` per normalized edge."""
        n = self.n
        levels = self.levels
        caps = self.caps
        fused = self.fused
        full = self.full_mask
        parent_masks = self.parent_masks
        level0 = key & full
        compute_i = self.compute_i
        spread = self.spread

        # -- computes: parents all at level 0, v itself not there ------- #
        computable = []
        m = full & ~level0
        while m:
            low = m & -m
            m ^= low
            i = low.bit_length() - 1
            if parent_masks[i] & ~level0 == 0:
                computable.append((i, low))
        if level0.bit_count() < caps[0]:
            for i, low in computable:
                yield (key & ~(low * spread)) | low, compute_i, i
        else:
            # full fastest level: fused Delete(x at level 0); Compute(v),
            # where x is not one of v's inputs
            for i, low in computable:
                cleared = key & ~(low * spread)
                mx = level0 & ~parent_masks[i]
                while mx:
                    lowx = mx & -mx
                    mx ^= lowx
                    x = lowx.bit_length() - 1
                    yield (cleared ^ lowx) | low, compute_i, fused * (x + 1) + i

        # -- level moves (and their fused variants at full targets) ---- #
        masks = [(key >> (j * n)) & full for j in range(levels)]
        for j in range(levels):
            mj = masks[j]
            if not mj:
                continue
            for to in (j - 1, j + 1):
                if not 0 <= to < levels:
                    continue
                cost = self.transfer_i[min(j, to)]
                cap_to = caps[to]
                at_to = to * n
                if cap_to is None or masks[to].bit_count() < cap_to:
                    m = mj
                    while m:
                        low = m & -m
                        m ^= low
                        i = low.bit_length() - 1
                        yield (
                            (key ^ (low << j * n)) | (low << at_to),
                            cost,
                            n + i * levels + to,
                        )
                else:
                    target = masks[to]
                    m = mj
                    while m:
                        low = m & -m
                        m ^= low
                        i = low.bit_length() - 1
                        code = n + i * levels + to
                        moved = key ^ (low << j * n)
                        mx = target
                        while mx:
                            lowx = mx & -mx
                            mx ^= lowx
                            x = lowx.bit_length() - 1
                            yield (
                                (moved ^ (lowx << at_to)) | (low << at_to),
                                cost,
                                fused * (x + 1) + code,
                            )

    def decode_moves(self, codes: List[int]) -> List:
        nodes = self.layout.nodes
        n = self.n
        levels = self.levels
        fused = self.fused
        moves: List = []
        for code in codes:
            if code >= fused:
                x, code = divmod(code, fused)
                moves.append(MLDelete(nodes[x - 1]))
            if code < n:
                moves.append(MLCompute(nodes[code]))
            else:
                i, to = divmod(code - n, levels)
                moves.append(MLMove(nodes[i], to))
        return moves


def solve_multilevel_optimal(
    instance: MultilevelInstance,
    *,
    budget: int = 2_000_000,
    return_schedule: bool = True,
    on_exhausted: str = "raise",
) -> MultilevelOptimalResult:
    """Optimal multi-level pebbling cost by best-first search.

    Dijkstra over the packed-state graph; when the hierarchy prices
    computation (``compute_cost > 0``) the search runs as A* under the
    admissible, consistent heuristic *compute_cost x (sinks without a
    pebble)* — every unpebbled sink still needs at least one Compute.

    ``on_exhausted`` controls behaviour at ``budget`` expansions:
    ``"raise"`` (default) raises :class:`BudgetExceededError`;
    ``"bound"`` returns a truncated result whose ``cost`` is a *lower
    bound* on the optimum (the smallest f-value still open) with
    ``moves=None`` and ``complete=False`` — the building block of
    :func:`multilevel_cost_bounds`.
    """
    ex = _MLExpander(instance)
    compute_i = ex.compute_i
    unpebbled_sinks = ex.unpebbled_sinks

    def h(key: int) -> int:
        return compute_i * unpebbled_sinks(key).bit_count()

    result = best_first(
        ex,
        h if compute_i else None,
        budget=budget,
        return_schedule=return_schedule,
        on_exhausted=on_exhausted,
    )
    return MultilevelOptimalResult(*result)


def multilevel_cost_bounds(
    instance: MultilevelInstance,
    *,
    node_budget: int = 50_000,
) -> Tuple[Fraction, Fraction]:
    """Bracket the optimal multi-level cost as ``(lower, upper)``.

    Runs :func:`solve_multilevel_optimal` for at most ``node_budget``
    expansions.  If the search finishes, both ends equal the exact
    optimum.  Otherwise the lower end is the smallest f-value still open
    on the frontier (f-values along any path are non-decreasing, so no
    cheaper completion exists) and the upper end is the priced
    topological baseline of
    :func:`~repro.multilevel.strategies.multilevel_topological_schedule`.
    """
    from ..multilevel.game import MultilevelSimulator
    from ..multilevel.strategies import multilevel_topological_schedule

    result = solve_multilevel_optimal(
        instance,
        budget=node_budget,
        return_schedule=False,
        on_exhausted="bound",
    )
    if result.complete:
        return result.cost, result.cost
    upper = MultilevelSimulator(instance).run(
        multilevel_topological_schedule(instance), require_complete=True
    ).cost
    lower = result.cost
    return lower, max(lower, upper)
