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
from typing import List, Optional, Tuple

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


def _cost_of(pebbler: OnlinePebbler) -> Fraction:
    costs = pebbler.instance.costs
    from ..core.moves import Compute, Load, Store

    total = Fraction(0)
    for m in pebbler.moves:
        if isinstance(m, Load):
            total += costs.load_cost
        elif isinstance(m, Store):
            total += costs.store_cost
        elif isinstance(m, Compute):
            total += costs.compute_cost
        else:
            total += costs.delete_cost
    return total


def beam_search_pebble(
    instance: PebblingInstance,
    *,
    beam_width: int = 16,
    eviction: Optional[EvictionPolicy] = None,
    validate: bool = True,
) -> BeamResult:
    """Pebble ``instance`` by beam search over the computation order.

    Each beam entry is a partial pebbling (an :class:`OnlinePebbler`
    clone); at every level each entry is extended by all its ready nodes
    and the ``beam_width`` cheapest results survive (ties broken by a
    board signature for determinism).  Duplicate boards are merged,
    keeping the cheaper history.
    """
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    total_nodes = instance.dag.n_nodes
    beam: List[Tuple[Fraction, OnlinePebbler, List[Node]]] = [
        (Fraction(0), OnlinePebbler(instance, eviction=eviction), [])
    ]
    expanded = 0

    for _ in range(total_nodes):
        candidates: List[Tuple[Fraction, OnlinePebbler, List[Node]]] = []
        seen_boards = {}
        for cost, pebbler, order in beam:
            for v in pebbler.ready_nodes():
                twin = pebbler.clone()
                twin.compute_next(v)
                expanded += 1
                tcost = _cost_of(twin)
                # bitmask board signature: three ints, cheap to hash
                signature = (twin.red_mask, twin.blue_mask, twin.computed_mask)
                prev = seen_boards.get(signature)
                if prev is not None and prev <= tcost:
                    continue
                seen_boards[signature] = tcost
                candidates.append((tcost, twin, order + [v]))
        if not candidates:
            break  # every node computed
        candidates.sort(key=lambda item: (item[0], repr(item[2])))
        beam = candidates[:beam_width]

    best_cost, best_pebbler, best_order = beam[0]
    schedule = best_pebbler.schedule()
    if validate:
        result = PebblingSimulator(instance).run(schedule, require_complete=True)
        best_cost = result.cost
    return BeamResult(
        schedule=schedule,
        cost=best_cost,
        order=tuple(best_order),
        beam_width=beam_width,
        expanded=expanded,
    )
