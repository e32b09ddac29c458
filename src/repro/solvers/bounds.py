"""Bounds on the optimal pebbling cost.

Implements the elementary bounds of Section 3 of the paper plus the
classic Hong-Kung style I/O lower bounds for matmul/FFT DAGs (the
reference curves that the ``hong-kung`` and kernel experiment specs'
checks hold measured traffic against), and
:func:`exhaustive_cost_bounds`, which brackets the optimum by a truncated
run of the shared bitmask search kernel (:mod:`repro.solvers.kernel`)
when an instance is too large to solve exactly.

The Table 2 cost ranges are exactly these bounds:

* base/oneshot: opt in [0, (2*Delta+1) * n];
* nodel:        opt in [~n, (2*Delta+1) * n]  (precisely >= required - R);
* compcost:     opt in [~eps*n, (2*Delta+1+eps) * n].
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import FrozenSet, Tuple, Union

from ..core.dag import ComputationDAG, Node
from ..core.instance import PebblingInstance
from ..core.models import DEFAULT_EPSILON, Model
from . import kernel

__all__ = [
    "feasible",
    "required_nodes",
    "upper_bound_naive",
    "trivial_lower_bound",
    "nodel_lower_bound",
    "compcost_lower_bound",
    "exhaustive_cost_bounds",
    "matmul_io_lower_bound",
    "fft_io_lower_bound",
]


def feasible(dag: ComputationDAG, red_limit: int) -> bool:
    """A pebbling exists iff R >= Delta + 1 (Section 3)."""
    return red_limit >= dag.max_indegree + 1


def required_nodes(dag: ComputationDAG) -> FrozenSet[Node]:
    """Nodes that every pebbling must compute: sinks and their ancestors.

    Nodes outside this set never influence any sink and can be ignored by
    an optimal pebbling.
    """
    needed = set(dag.sinks)
    for s in dag.sinks:
        needed.update(dag.ancestors(s))
    return frozenset(needed)


def upper_bound_naive(
    dag: ComputationDAG,
    model: "Model | str" = Model.BASE,
    *,
    epsilon: Fraction = DEFAULT_EPSILON,
) -> Fraction:
    """The universal (2*Delta+1) * n upper bound of Section 3.

    Realised constructively by
    :func:`repro.heuristics.baseline.topological_schedule`.  In compcost
    the bound gains the computation term: (2*Delta+1+eps) * n.
    """
    model = Model.parse(model)
    delta = dag.max_indegree
    n = dag.n_nodes
    bound = Fraction((2 * delta + 1) * n)
    if model is Model.COMPCOST:
        bound += Fraction(epsilon) * n
    return bound


def trivial_lower_bound(
    dag: ComputationDAG,
    model: "Model | str",
    red_limit: int,
    *,
    epsilon: Fraction = DEFAULT_EPSILON,
) -> Fraction:
    """The Table 2 lower end of the optimal-cost range, per model."""
    model = Model.parse(model)
    if model in (Model.BASE, Model.ONESHOT):
        return Fraction(0)
    if model is Model.NODEL:
        return nodel_lower_bound(dag, red_limit)
    if model is Model.COMPCOST:
        return compcost_lower_bound(dag, epsilon=epsilon)
    raise ValueError(f"unhandled cost model: {model!r}")  # pragma: no cover


def nodel_lower_bound(dag: ComputationDAG, red_limit: int) -> Fraction:
    """nodel: pebbles are never deleted, so all but R of the required
    nodes must end up blue — each blue pebble cost a store (Section 4)."""
    return Fraction(max(0, len(required_nodes(dag)) - red_limit))


def compcost_lower_bound(
    dag: ComputationDAG, *, epsilon: Fraction = DEFAULT_EPSILON
) -> Fraction:
    """compcost: every required node, a source included, is computed at
    least once, at a cost of epsilon each (Section 4)."""
    return Fraction(epsilon) * len(required_nodes(dag))


def exhaustive_cost_bounds(
    instance: PebblingInstance,
    *,
    node_budget: int = 50_000,
) -> Tuple[Fraction, Fraction]:
    """Bracket the optimal cost of ``instance`` as ``(lower, upper)``.

    Runs the shared bitmask kernel — A* under the cost model's admissible
    bound, as :func:`~repro.solvers.kernel.astar_bits` does by default —
    for at most ``node_budget`` expansions.  If the search finishes, both
    ends equal the exact optimum.  Otherwise the lower end is the smallest
    f = g + h still open on the frontier (no cheaper completion can exist:
    the bound is consistent, so f never falls along a path), floor-joined
    with the lower bounds of Table 2 via :func:`trivial_lower_bound`; in
    oneshot and compcost the bound lifts it well above the smallest open
    g.  The upper end is the model-aware Section 3 bound
    ``trivial upper = (2*Delta+1)*n``.

    This replaces the old pattern of callers running their own truncated
    frozenset searches to size up an instance before committing to an
    exact solve.
    """
    result = kernel.astar_bits(
        instance,
        budget=node_budget,
        return_schedule=False,
        on_exhausted="bound",
    )
    if result.complete:
        # search finished within budget: the cost is exact
        return result.cost, result.cost
    lower = max(
        result.cost,
        trivial_lower_bound(
            instance.dag,
            instance.model,
            instance.red_limit,
            epsilon=instance.epsilon,
        ),
    )
    upper = upper_bound_naive(
        instance.dag, instance.model, epsilon=instance.epsilon
    )
    return lower, max(lower, upper)


def _as_float(x: Union[int, float]) -> float:
    return float(x)


def matmul_io_lower_bound(n: int, red_limit: int) -> float:
    """Hong-Kung / Irony-Toledo-Tiskin I/O lower bound for naive n x n
    matrix multiplication with fast memory size R:

        Q  >=  n^3 / (2 * sqrt(2) * sqrt(R))  -  R.

    This is the classic Omega(n^3 / sqrt(R)) law; constants follow
    Irony, Toledo & Tiskin (2004) for the sequential case.  Interpreted
    here as a reference curve (our simulator plays the game on the
    :func:`repro.generators.classic.matmul_dag` DAG, which matches the
    model the bound is stated for up to constant factors).

    Edge-case convention (shared with :func:`fft_io_lower_bound`):
    parameters that describe no problem at all (``n < 1`` or
    ``red_limit < 1``) raise :class:`ValueError`; degenerate but valid
    sizes where the formula goes non-positive clamp to ``0.0`` — a
    vacuous bound, not an invalid call.
    """
    if n < 1 or red_limit < 1:
        raise ValueError("n and red_limit must be >= 1")
    return max(0.0, n**3 / (2 * math.sqrt(2) * math.sqrt(red_limit)) - red_limit)


def fft_io_lower_bound(n: int, red_limit: int) -> float:
    """Hong-Kung I/O lower bound for the n-input FFT (butterfly) DAG:

        Q  >=  n * log2(n) / (2 * log2(2 * R)).

    The Omega(n log n / log R) law of Hong & Kung (1981), again used as a
    reference curve with their constant convention.

    Edge-case convention (shared with :func:`matmul_io_lower_bound`):
    ``n < 1`` or ``red_limit < 1`` raise :class:`ValueError`; the
    degenerate single-input transform (``n == 1``, where ``log2(n)`` is
    zero) clamps to the vacuous bound ``0.0``.
    """
    if n < 1 or red_limit < 1:
        raise ValueError("n and red_limit must be >= 1")
    return max(0.0, n * math.log2(n) / (2 * math.log2(2 * red_limit)))
