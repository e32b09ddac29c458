"""Local search over computation orders.

Section 8 shows the natural greedy orderings can be catastrophically bad;
a practical follow-up question is whether cheap *improvement* heuristics
help.  This module implements hill-climbing over topological orders: start
from any order (greedy's, or the DAG's default), evaluate candidates with
the Belady fixed-order pebbler, and accept adjacent-transposition or
block-reinsertion moves that keep the order topological and lower the
cost.

This is an honest heuristic: Theorem 4's grid still defeats it from the
greedy starting point unless the search is allowed enough moves to
reassemble whole diagonals — which ``tests/heuristics/test_local_search.py``
demonstrates on three grid sizes.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from ..core.dag import ComputationDAG, Node
from ..core.instance import PebblingInstance
from ..core.schedule import Schedule
from ..core.simulator import PebblingSimulator
from .eviction import EvictionPolicy
from .pebbler import fixed_order_schedule

__all__ = ["LocalSearchResult", "improve_order"]


@dataclass(frozen=True)
class LocalSearchResult:
    """Outcome of a local search run."""

    order: Tuple[Node, ...]
    schedule: Schedule
    cost: Fraction
    initial_cost: Fraction
    evaluations: int
    improvements: int


def _is_topological(dag: ComputationDAG, order: Sequence[Node]) -> bool:
    pos = {v: i for i, v in enumerate(order)}
    return all(pos[u] < pos[v] for u, v in dag.edges())


def improve_order(
    instance: PebblingInstance,
    order: Optional[Sequence[Node]] = None,
    *,
    eviction: Optional[EvictionPolicy] = None,
    max_evaluations: int = 2000,
    neighborhood: str = "adjacent",
    seed: int = 0,
) -> LocalSearchResult:
    """Hill-climb over topological orders, scoring with the pebbler.

    Parameters
    ----------
    order:
        Starting order (default: the DAG's topological order).
    neighborhood:
        ``"adjacent"`` — swap neighbouring pairs (cheap, local);
        ``"reinsert"`` — remove one node and re-insert it at a random
        feasible position (escapes some local minima).
    max_evaluations:
        Total pebbler evaluations allowed (each is O(n) simulation).
    """
    dag = instance.dag
    sim = PebblingSimulator(instance)
    current: List[Node] = (
        list(order) if order is not None else list(dag.topological_order())
    )
    # compare the node multiset directly: repr-based comparison would let
    # two distinct nodes with equal reprs pass as a "permutation"
    if Counter(current) != Counter(dag.nodes):
        raise ValueError("order must be a permutation of the DAG nodes")
    if not _is_topological(dag, current):
        raise ValueError("starting order is not topological")
    if neighborhood not in ("adjacent", "reinsert"):
        raise ValueError(f"unknown neighborhood {neighborhood!r}")

    rng = random.Random(seed)

    def evaluate(o: Sequence[Node]) -> Fraction:
        sched = fixed_order_schedule(instance, o, eviction=eviction)
        return sim.run(sched, require_complete=True).cost

    evaluations = 1
    improvements = 0
    best_cost = evaluate(current)
    initial_cost = best_cost
    n = len(current)

    stalled = False
    while not stalled and evaluations < max_evaluations:
        stalled = True
        if neighborhood == "adjacent":
            candidates = list(range(n - 1))
            rng.shuffle(candidates)
            for i in candidates:
                if evaluations >= max_evaluations:
                    break
                cand = current[:]
                cand[i], cand[i + 1] = cand[i + 1], cand[i]
                if not _is_topological(dag, cand):
                    continue
                evaluations += 1
                cost = evaluate(cand)
                if cost < best_cost:
                    current, best_cost = cand, cost
                    improvements += 1
                    stalled = False
                    break
        else:  # reinsert
            for _ in range(n if n > 1 else 0):
                if evaluations >= max_evaluations:
                    break
                # sample the moved node and its *final* position directly;
                # j is drawn from the n-1 non-identity positions so no
                # attempt is burnt on a no-op candidate, and every target
                # slot (including n-1) is reachable
                i = rng.randrange(n)
                j = rng.randrange(n - 1)
                if j >= i:
                    j += 1
                cand = current[:]
                v = cand.pop(i)
                cand.insert(j, v)
                if not _is_topological(dag, cand):
                    continue
                evaluations += 1
                cost = evaluate(cand)
                if cost < best_cost:
                    current, best_cost = cand, cost
                    improvements += 1
                    stalled = False
                    break

    schedule = fixed_order_schedule(instance, current, eviction=eviction)
    return LocalSearchResult(
        order=tuple(current),
        schedule=schedule,
        cost=best_cost,
        initial_cost=initial_cost,
        evaluations=evaluations,
        improvements=improvements,
    )
