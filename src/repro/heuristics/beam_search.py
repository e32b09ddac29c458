"""Beam search over computation orders.

A middle ground between the Section 8 greedy rules (beam width 1, myopic
score) and exact search (exponential): keep the ``beam_width`` cheapest
partial pebblings, extend each by every ready node, prune back.  Scoring
is the exact accumulated cost plus an optimistic remaining-work estimate
(zero — costs are admissible), so the search degrades gracefully into
greedy as the width shrinks and into exhaustive order enumeration as it
grows.

This is a practical heuristic, not a paper artifact: the
``beam-ablation`` experiment spec and the beam tests use it to show how
much of the Theorem 4 gap sheer search width can and cannot buy back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..core.dag import Node
from ..core.instance import PebblingInstance
from ..core.schedule import Schedule
from ..core.simulator import PebblingSimulator
from .eviction import EvictionPolicy
from .pebbler import OnlinePebbler

__all__ = ["BeamResult", "beam_search_pebble"]


@dataclass(frozen=True)
class BeamResult:
    """Outcome of a beam search."""

    schedule: Schedule
    cost: Fraction
    order: Tuple[Node, ...]
    beam_width: int
    expanded: int


def beam_search_pebble(
    instance: PebblingInstance,
    *,
    beam_width: int = 16,
    eviction: Optional[EvictionPolicy] = None,
) -> BeamResult:
    """Pebble ``instance`` by beam search over the computation order.

    Each beam entry is a partial pebbling (an :class:`OnlinePebbler`
    clone); at every level each entry is extended by all its ready nodes
    and the ``beam_width`` cheapest results survive (ties broken by a
    board signature for determinism).  Duplicate boards are merged,
    keeping the cheaper history.  An entry's cost is its parent's plus
    the price of the moves its compute added; the winner's schedule is
    replayed through the simulator, whose cost is the one reported.
    """
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    costs = instance.costs
    # indexed by Move.kind_id
    price = (costs.load_cost, costs.store_cost, costs.compute_cost, costs.delete_cost)
    total_nodes = instance.dag.n_nodes
    beam: List[Tuple[Fraction, OnlinePebbler, List[Node]]] = [
        (Fraction(0), OnlinePebbler(instance, eviction=eviction), [])
    ]
    expanded = 0

    for _ in range(total_nodes):
        # one candidate per board, keyed by the bitmask signature (three
        # ints, cheap to hash): the cheapest, the first among equal costs
        boards: Dict[Tuple[int, int, int], Tuple[Fraction, OnlinePebbler, List[Node]]] = {}
        for cost, pebbler, order in beam:
            for v in pebbler.ready_nodes():
                twin = pebbler.clone()
                twin.compute_next(v)
                expanded += 1
                tcost = cost + sum(
                    price[m.kind_id] for m in twin.moves[len(pebbler.moves):]
                )
                signature = (twin.red_mask, twin.blue_mask, twin.computed_mask)
                prev = boards.get(signature)
                if prev is not None and prev[0] <= tcost:
                    continue
                boards[signature] = (tcost, twin, order + [v])
        if not boards:
            break  # every node computed
        beam = sorted(boards.values(), key=lambda item: (item[0], repr(item[2])))[:beam_width]

    _, best_pebbler, best_order = beam[0]
    schedule = best_pebbler.schedule()
    result = PebblingSimulator(instance).run(schedule, require_complete=True)
    return BeamResult(
        schedule=schedule,
        cost=result.cost,
        order=tuple(best_order),
        beam_width=beam_width,
        expanded=expanded,
    )
