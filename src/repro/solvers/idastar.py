"""Iterative-deepening A*: an independent second exact solver.

Optimal pebbling claims in this repository rest on
:func:`repro.solvers.exact.solve_optimal` (best-first A*).  This
module provides a structurally different exact algorithm — cost-bounded
depth-first search with iterative threshold deepening — so the two can
cross-check each other in the test-suite: a bug in either search would
have to be mirrored in the other to go unnoticed.

Both solvers now run on the shared bitmask kernel
(:mod:`repro.solvers.kernel`): this module contributes the deepening
*strategy* (:func:`repro.solvers.kernel.idastar_bits`), while state
encoding, cost scaling, successor generation — the expander's
``successors(key)`` over packed int keys — and the default admissible
bound (``heuristic="auto"``; ``None`` deepens on g alone) are the
kernel's.  The
strategies stay independent where it matters — IDA* uses neither the
priority queue nor the global closed set of the kernel's best-first
driver, so a bug in either A*-side structure cannot leak into this
solver.

Implementation notes: zero-cost moves (computes/deletes) are common, so a
naive IDA* would loop within a threshold.  Each deepening iteration
therefore keeps a ``best_g`` memo per state and only expands a state when
reached more cheaply than before, making an iteration equivalent to a
cost-bounded best-first sweep.  Intended for the same small instances as
the best-first solver.
"""

from __future__ import annotations

from typing import Optional

from ..core.instance import PebblingInstance
from . import kernel
from .exact import OptimalResult, optimal_result

__all__ = ["solve_optimal_idastar"]


def solve_optimal_idastar(
    instance: PebblingInstance,
    *,
    budget: int = 4_000_000,
    return_schedule: bool = True,
    heuristic: Optional[str] = "auto",
    max_iterations: int = 10_000,
) -> OptimalResult:
    """Exact optimal pebbling by iterative-deepening A*.

    Same contract as :func:`repro.solvers.exact.solve_optimal`, including
    ``heuristic``; use whichever fits the instance — this one trades the
    priority queue for repeated bounded DFS sweeps (less memory on deep,
    narrow searches).
    """
    terms = kernel.bound_terms(instance.costs, heuristic)
    result = kernel.idastar_bits(
        instance,
        budget=budget,
        return_schedule=return_schedule,
        heuristic=heuristic,
        max_iterations=max_iterations,
    )
    return optimal_result(result, terms)
