"""DAG and schedule transforms for the alternative problem definitions.

Section 3 / Appendix C of the paper discuss variants of the problem
statement used across the literature:

* *single source*: add a node s0 with an edge to every other node and one
  more red pebble; a reasonable pebbling keeps s0 red forever, so the game
  on the rest is unchanged;
* *blue sinks required*: some papers require every sink to end with a
  *blue* pebble; turning the final red pebbles blue costs at most 1 per
  sink, asymptotically irrelevant in all constructions.

Both transforms are implemented here so the equivalences can be exercised
empirically (see ``tests/gadgets/test_transforms.py`` and the checks of
the ``appendix-c`` experiment spec).
"""

from __future__ import annotations

from typing import Iterable, List

from ..core.dag import ComputationDAG, Node
from ..core.instance import PebblingInstance
from ..core.moves import Compute, Move, Store
from ..core.schedule import Schedule
from ..core.simulator import PebblingSimulator

__all__ = ["add_super_source", "finalize_sinks_blue", "lift_schedule_to_super_source"]


def add_super_source(dag: ComputationDAG, label: Node = "s0") -> ComputationDAG:
    """Add a super source ``label`` with an edge to every existing node.

    The resulting DAG has exactly one source.  Play it with R' = R + 1 red
    pebbles: one pebble sits on ``label`` for the whole game and the rest
    of the game is isomorphic to the original (Section 3, "Small number of
    source nodes").
    """
    if label in dag:
        raise ValueError(f"label {label!r} already present in the DAG")
    edges = list(dag.edges())
    edges.extend((label, v) for v in dag.nodes)
    return ComputationDAG(edges=edges, nodes=[label, *dag.nodes])


def lift_schedule_to_super_source(
    schedule: "Schedule | Iterable[Move]", label: Node = "s0"
) -> Schedule:
    """Lift a schedule for a DAG to its :func:`add_super_source` variant.

    Prepends ``Compute(s0)``; the extra red pebble of the transformed
    instance keeps s0 red throughout, so the original moves replay
    unchanged and the cost is identical.
    """
    moves = schedule.moves if isinstance(schedule, Schedule) else tuple(schedule)
    return Schedule((Compute(label),) + moves)


def finalize_sinks_blue(
    instance: PebblingInstance, schedule: "Schedule | Iterable[Move]"
) -> Schedule:
    """Extend a complete schedule so every sink ends with a *blue* pebble.

    Replays the schedule to find which sinks finish red and appends a
    ``Store`` for each: the extra cost is at most 1 per sink (Appendix C).
    The input schedule must already be complete for the instance.
    """
    base = schedule.moves if isinstance(schedule, Schedule) else tuple(schedule)
    result = PebblingSimulator(instance).run(base, require_complete=True)
    extra: List[Move] = [
        Store(s)
        for s in sorted(instance.dag.sinks, key=repr)
        if s in result.final_state.red
    ]
    return Schedule(base + tuple(extra))
