"""Solvers: exact optimal pebbling, visit-order optimization, bounds.

The exact solver ``solve_optimal`` and the ``exhaustive_cost_bounds``
helper both run on the shared bitmask search kernel in
:mod:`repro.solvers.kernel`, as A* under the cost model's
admissible bound by default (``heuristic=None`` for uniform-cost search).
``solve_multilevel_optimal`` extends the same packed-state machinery to
the multi-level game of :mod:`repro.multilevel`.

An alternate engine lives behind ``solve_optimal(engine=...)``: the
batched numpy frontier (:mod:`repro.solvers.batch_kernel`,
``engine="numpy"``).  ``astar_batch`` is re-exported lazily so
importing this package never pays for numpy.
"""

from .bounds import (
    compcost_lower_bound,
    exhaustive_cost_bounds,
    feasible,
    fft_io_lower_bound,
    matmul_io_lower_bound,
    nodel_lower_bound,
    required_nodes,
    trivial_lower_bound,
    upper_bound_naive,
)
from .exact import (
    OptimalResult,
    decide_pebbling,
    solve_optimal,
)
from .multilevel import (
    MultilevelOptimalResult,
    multilevel_cost_bounds,
    solve_multilevel_optimal,
)
from .group import (
    brute_force_min_order,
    held_karp_min_order,
    nearest_neighbor_order,
    two_opt_improve,
)

_LAZY = {
    "astar_batch": ("repro.solvers.batch_kernel", "astar_batch"),
}


def __getattr__(name: str) -> object:
    try:
        module, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module), attr)


__all__ = [
    "solve_optimal",
    "astar_batch",
    "solve_multilevel_optimal",
    "multilevel_cost_bounds",
    "MultilevelOptimalResult",
    "decide_pebbling",
    "OptimalResult",
    "exhaustive_cost_bounds",
    "held_karp_min_order",
    "brute_force_min_order",
    "nearest_neighbor_order",
    "two_opt_improve",
    "feasible",
    "upper_bound_naive",
    "trivial_lower_bound",
    "nodel_lower_bound",
    "compcost_lower_bound",
    "required_nodes",
    "matmul_io_lower_bound",
    "fft_io_lower_bound",
]
