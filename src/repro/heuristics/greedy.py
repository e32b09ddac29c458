"""The greedy pebbling strategies of Section 8.

The paper's three natural greedy rules select, among the *ready* nodes
(uncomputed nodes whose inputs are all computed), the node with

* the largest number of red pebbles among its inputs
  (:attr:`GreedyRule.MOST_RED_INPUTS`),
* the smallest number of blue pebbles among its inputs
  (:attr:`GreedyRule.FEWEST_BLUE_INPUTS`), or
* the largest red-pebbles-to-inputs ratio (:attr:`GreedyRule.RED_RATIO`).

On uniform-indegree DAGs (all the paper's constructions) the three rules
coincide (Section 8); tests pin this, and the ``greedy-rules``
experiment spec shows where they diverge on irregular DAGs.

Tie-breaking.  The paper argues at input-group granularity ("the only
already enabled input group that has a red pebble on one of its nodes"):
fresh source nodes all score 0 under every rule, so a node-level greedy
needs a secondary criterion to express "work towards the target that is
already partially red".  We use the maximum red-input count over a node's
uncomputed consumers, then the topological index — this reproduces the
paper's group-level walk on the Theorem 4 grid (verified by the
reduction's tests) while remaining a purely local rule.

For base/nodel/compcost the greedy is interpreted as ordering the *first*
computation of every node (Appendix A.4); the pebbler's model-aware
acquisition/eviction then realises each step in the cheapest legal way
(the appendix's "clever greedy" oracle).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from ..core.dag import Node
from ..core.instance import PebblingInstance
from ..core.schedule import Schedule
from ..core.simulator import PebblingSimulator
from .eviction import EvictionPolicy
from .pebbler import OnlinePebbler

__all__ = ["GreedyRule", "GreedyResult", "greedy_pebble"]


class GreedyRule(enum.Enum):
    """The three greedy node-selection rules of Section 8."""

    MOST_RED_INPUTS = "most-red-inputs"
    FEWEST_BLUE_INPUTS = "fewest-blue-inputs"
    RED_RATIO = "red-ratio"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class GreedyResult:
    """Outcome of a greedy pebbling run.

    Attributes
    ----------
    schedule:
        The emitted (simulator-validated) schedule.
    cost:
        Its cost under the instance's model.
    order:
        The computation order the rule chose.
    rule:
        Which rule produced it.
    """

    schedule: Schedule
    cost: Fraction
    order: Tuple[Node, ...]
    rule: GreedyRule


def _score(pebbler: OnlinePebbler, v: Node, rule: GreedyRule) -> float:
    indeg = pebbler.dag.indegree(v)
    red = pebbler.red_inputs(v)
    if rule is GreedyRule.MOST_RED_INPUTS:
        return float(red)
    if rule is GreedyRule.FEWEST_BLUE_INPUTS:
        return -float(pebbler.blue_inputs(v))
    if rule is GreedyRule.RED_RATIO:
        return red / indeg if indeg else 0.0
    raise AssertionError(rule)  # pragma: no cover


def _secondary(pebbler: OnlinePebbler, v: Node) -> float:
    """Red-input count of v's best uncomputed consumer (see module doc)."""
    best = 0
    for w in pebbler.dag.successors(v):
        if not pebbler.is_computed(w):
            r = pebbler.red_inputs(w)
            if r > best:
                best = r
    return float(best)


def greedy_pebble(
    instance: PebblingInstance,
    rule: "GreedyRule | str" = GreedyRule.MOST_RED_INPUTS,
    *,
    eviction: Optional[EvictionPolicy] = None,
    validate: bool = True,
) -> GreedyResult:
    """Run one greedy rule to completion on ``instance``.

    Every node of the DAG is computed exactly once, in the order the rule
    dictates; the returned schedule is replayed through the simulator
    (``validate=True``) so the reported cost is authoritative.
    """
    if isinstance(rule, str):
        rule = GreedyRule(rule)
    pebbler = OnlinePebbler(instance, eviction=eviction)
    order: List[Node] = []
    topo_pos = {v: i for i, v in enumerate(instance.dag.topological_order())}

    total = instance.dag.n_nodes
    for _ in range(total):
        ready = pebbler.ready_nodes()
        if not ready:
            break  # all nodes computed
        v = max(
            ready,
            key=lambda u: (
                _score(pebbler, u, rule),
                _secondary(pebbler, u),
                -topo_pos[u],
            ),
        )
        pebbler.compute_next(v)
        order.append(v)

    schedule = pebbler.schedule()
    if validate:
        result = PebblingSimulator(instance).run(schedule, require_complete=True)
        cost = result.cost
    else:
        cost = Fraction(0)
        for move in schedule:
            # untrusted fast path: price moves directly
            from ..core.moves import Compute, Load, Store

            costs = instance.costs
            if isinstance(move, Load):
                cost += costs.load_cost
            elif isinstance(move, Store):
                cost += costs.store_cost
            elif isinstance(move, Compute):
                cost += costs.compute_cost
            else:
                cost += costs.delete_cost
    return GreedyResult(schedule=schedule, cost=cost, order=tuple(order), rule=rule)
