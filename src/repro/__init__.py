"""repro: red-blue pebble games — models, solvers, reductions, experiments.

A faithful, executable reproduction of

    Pál András Papp, Roger Wattenhofer.
    *On the Hardness of Red-Blue Pebble Games.*  SPAA 2020.

The package provides:

* the four pebbling model variants (base / oneshot / nodel / compcost) with
  exact cost accounting (:mod:`repro.core`), including the bitmask state
  encoding every hot path runs on (:mod:`repro.core.bitstate`);
* exact optimal solvers — all sharing the bitmask search kernel of
  :mod:`repro.solvers.kernel` — group-structured solvers and bounds
  (:mod:`repro.solvers`);
* the greedy heuristics of Section 8 with pluggable eviction policies
  (:mod:`repro.heuristics`);
* the paper's gadget constructions — H2C, constant-degree, tradeoff chain
  (:mod:`repro.gadgets`);
* the hardness reductions of Theorems 2-4 (:mod:`repro.reductions`) and the
  NP-substrate solvers they are calibrated against (:mod:`repro.npc`);
* workload generators, analysis helpers and serialization
  (:mod:`repro.generators`, :mod:`repro.analysis`, :mod:`repro.io`).

Quickstart
----------
>>> from repro import ComputationDAG, PebblingInstance, Model, PebblingSimulator
>>> from repro import Compute, Store, Load
>>> dag = ComputationDAG([("a", "c"), ("b", "c")])
>>> inst = PebblingInstance(dag=dag, model=Model.ONESHOT, red_limit=3)
>>> sim = PebblingSimulator(inst)
>>> result = sim.run([Compute("a"), Compute("b"), Compute("c")], require_complete=True)
>>> result.cost
Fraction(0, 1)
"""

from .core import (
    ALL_MODELS,
    BitLayout,
    BitState,
    BudgetExceededError,
    CapacityExceededError,
    ComputationDAG,
    Compute,
    CostBreakdown,
    CostModel,
    CycleError,
    DEFAULT_EPSILON,
    Delete,
    DeletionForbiddenError,
    ExecutionResult,
    GraphError,
    IllegalMoveError,
    IncompletePebblingError,
    InfeasibleInstanceError,
    Load,
    Model,
    Move,
    Node,
    PebblingError,
    PebblingInstance,
    PebblingSimulator,
    PebblingState,
    RecomputationError,
    Schedule,
    SolverError,
    Store,
    ValidationReport,
    apply_move_bits,
    bit_layout,
    cost_model_for,
    move_from_tuple,
    validate_schedule,
)

from ._version import __version__

__all__ = [
    "__version__",
    "ComputationDAG",
    "Node",
    "PebblingInstance",
    "Model",
    "CostModel",
    "cost_model_for",
    "ALL_MODELS",
    "DEFAULT_EPSILON",
    "Move",
    "Load",
    "Store",
    "Compute",
    "Delete",
    "move_from_tuple",
    "Schedule",
    "CostBreakdown",
    "PebblingState",
    "BitLayout",
    "BitState",
    "bit_layout",
    "apply_move_bits",
    "PebblingSimulator",
    "ExecutionResult",
    "ValidationReport",
    "validate_schedule",
    "PebblingError",
    "GraphError",
    "CycleError",
    "IllegalMoveError",
    "CapacityExceededError",
    "RecomputationError",
    "DeletionForbiddenError",
    "IncompletePebblingError",
    "InfeasibleInstanceError",
    "SolverError",
    "BudgetExceededError",
]
