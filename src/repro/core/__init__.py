"""Core red-blue pebbling engine: DAGs, models, moves, states, simulation.

The public surface of this subpackage is re-exported at the top level of
:mod:`repro`; import from there in application code.
"""

from .bitstate import (
    BitLayout,
    BitState,
    apply_move_bits,
    bit_layout,
)
from .dag import ComputationDAG, Node
from .errors import (
    BudgetExceededError,
    CapacityExceededError,
    CycleError,
    DeletionForbiddenError,
    GraphError,
    IllegalMoveError,
    IncompletePebblingError,
    InfeasibleInstanceError,
    PebblingError,
    RecomputationError,
    SolverError,
)
from .instance import PebblingInstance
from .models import ALL_MODELS, DEFAULT_EPSILON, CostModel, Model, cost_model_for
from .moves import Compute, Delete, Load, Move, Store, move_from_tuple
from .schedule import CostBreakdown, Schedule
from .simulator import ExecutionResult, PebblingSimulator
from .state import PebblingState
from .validation import ValidationReport, validate_schedule

__all__ = [
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
    # errors
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
