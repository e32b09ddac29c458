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

Selection runs on the pebbler's bitmask board (:mod:`repro.core.bitstate`).
The ready set is a mask: it starts at the layout's sources, and after
each compute it loses the computed node and gains every consumer whose
parent mask is now inside ``computed``.  Selection takes two passes.
The first scores every candidate: the popcount of its parent mask and
``red`` (or ``blue``).  The second computes the secondary key only for
the candidates with the top score, and only when there are several; it
scans only those of a candidate's consumers that also consume a red
node, the only nodes whose red-input count is not zero.  (A ready node's
consumers are all uncomputed, since a node is computed only after its
inputs.)  Bit index is topological position, so the first best candidate
of an ascending scan wins the final tie-break.

For base/nodel/compcost the greedy is interpreted as ordering the *first*
computation of every node (Appendix A.4); the pebbler's model-aware
acquisition/eviction then realises each step in the cheapest legal way
(the appendix's "clever greedy" oracle).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from ..core.bitstate import bit_layout, iter_bits
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


def greedy_pebble(
    instance: PebblingInstance,
    rule: "GreedyRule | str" = GreedyRule.MOST_RED_INPUTS,
    *,
    eviction: Optional[EvictionPolicy] = None,
) -> GreedyResult:
    """Run one greedy rule to completion on ``instance``.

    Every node of the DAG is computed exactly once, in the order the rule
    dictates; the returned schedule is replayed through the simulator so
    the reported cost is authoritative.
    """
    if isinstance(rule, str):
        rule = GreedyRule(rule)
    pebbler = OnlinePebbler(instance, eviction=eviction)
    layout = bit_layout(instance.dag)
    nodes = layout.nodes
    parent_masks = layout.parent_masks
    succ_masks = layout.succ_masks
    order: List[Node] = []

    # the rule as locals: an enum member lookup per candidate is slow
    fewest_blue = rule is GreedyRule.FEWEST_BLUE_INPUTS
    ratio = rule is GreedyRule.RED_RATIO
    ready = layout.source_mask
    while ready:
        red = pebbler.red_mask
        counted = pebbler.blue_mask if fewest_blue else red
        # pass 1: the top score and the candidates that reach it
        top: List[int] = []
        best_score = -math.inf
        for i in iter_bits(ready):
            inputs = parent_masks[i]
            count = (inputs & counted).bit_count()
            if ratio:
                score: float = count / inputs.bit_count() if inputs else 0.0
            else:
                score = -count if fewest_blue else count
            if score > best_score:
                top, best_score = [i], score
            elif score == best_score:
                top.append(i)
        best = top[0]
        if len(top) > 1:
            # pass 2: the secondary key among the top scores.  Consumers of
            # red nodes have the only nonzero red-input counts (a ready
            # node's consumers are all uncomputed).
            hot = 0
            for r in iter_bits(red):
                hot |= succ_masks[r]
            best_secondary = 0
            for i in top:
                warm = succ_masks[i] & hot
                if not warm:  # most candidates have none
                    continue
                secondary = max((parent_masks[j] & red).bit_count() for j in iter_bits(warm))
                # strict: an equal key keeps the lower bit (topological index)
                if secondary > best_secondary:
                    best, best_secondary = i, secondary
        v = nodes[best]
        pebbler.compute_next(v)
        order.append(v)
        computed = pebbler.computed_mask
        ready &= ~(1 << best)
        for j in iter_bits(succ_masks[best]):
            if parent_masks[j] & ~computed == 0:
                ready |= 1 << j

    schedule = pebbler.schedule()
    result = PebblingSimulator(instance).run(schedule, require_complete=True)
    return GreedyResult(
        schedule=schedule, cost=result.cost, order=tuple(order), rule=rule
    )
