"""Multi-level memory hierarchies: the paper's cited generalization.

The related-work section points at Carpenter et al. (SPAA 2016), who
generalise red-blue pebbling to hierarchies with more than two levels.
This subpackage implements that generalisation: L levels of memory, level
0 the fastest, each level with its own capacity, values moving one level
at a time at per-boundary transfer costs.

Level count 2 with capacities (R, unbounded) and unit transfer costs is
exactly the red-blue game; the test-suite pins this equivalence against
the core engine move-for-move.

The subsystem runs on the same packed-state machinery as the core
engine: :mod:`repro.multilevel.bitgame` encodes boards as one bitmask
per level, :meth:`MultilevelSimulator.run` executes on masks, and
:func:`repro.solvers.multilevel.solve_multilevel_optimal` searches the
packed state graph exactly.  The ``ml:exact`` / ``ml:topo`` experiment
methods and the ``multilevel-smoke`` bench spec expose the game to the
experiment runner; hierarchies parse from one-line
``hier:CAPS:COSTS[:cEPS]`` strings
(:func:`repro.generators.hierarchy_from_spec`).
"""

from .bitgame import (
    apply_ml_move_bits,
    decode_ml_state,
    encode_ml_state,
    initial_ml_state,
)
from .game import (
    HierarchySpec,
    MLCompute,
    MLDelete,
    MLMove,
    MultilevelInstance,
    MultilevelSimulator,
    MultilevelState,
    two_level_equivalent,
)
from .strategies import multilevel_topological_schedule

__all__ = [
    "HierarchySpec",
    "MultilevelInstance",
    "MultilevelState",
    "MultilevelSimulator",
    "MLCompute",
    "MLDelete",
    "MLMove",
    "two_level_equivalent",
    "multilevel_topological_schedule",
    "apply_ml_move_bits",
    "encode_ml_state",
    "decode_ml_state",
    "initial_ml_state",
]
