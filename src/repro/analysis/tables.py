"""Regeneration of the paper's Tables 1 and 2 from the implementation.

Table 1 (operation costs) is read straight off the cost models; Table 2
(model properties) combines the implemented bounds with empirical
measurements supplied by the caller (or measured here on a default DAG).
Nothing in these rows is hard-coded prose copied from the paper: every
numeric entry comes from the library, so a regression in the rules would
change the tables.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional

from ..core.dag import ComputationDAG
from ..core.models import ALL_MODELS, Model, cost_model_for
from ..solvers.bounds import trivial_lower_bound, upper_bound_naive

__all__ = ["table1_rows", "table2_rows"]


def table1_rows(epsilon: Optional[Fraction] = None) -> List[Dict[str, str]]:
    """The four rows of Table 1, from the cost models themselves."""
    rows: List[Dict[str, str]] = []
    for model in ALL_MODELS:
        kwargs = {"epsilon": epsilon} if (epsilon is not None and model is Model.COMPCOST) else {}
        rows.append(cost_model_for(model, **kwargs).table1_row())
    return rows


#: Complexity results per model.  These columns of Table 2 are theorems,
#: not measurements; the strings cite where this repository *demonstrates*
#: the reduction behind each claim.
_COMPLEXITY = {
    Model.BASE: "PSPACE-complete [Demaine-Liu]; NP-hard (Thm 2, bench_thm2)",
    Model.ONESHOT: "NP-complete (Thm 2 + Lemma 1, bench_thm2/bench_lemma1)",
    Model.NODEL: "NP-complete (Thm 2 + Lemma 1; first shown by Demaine-Liu)",
    Model.COMPCOST: "NP-complete (Thm 2 + Lemma 1)",
}

_GREEDY_RATIO = {
    Model.BASE: "Omega(n^(1/6)) (Thm 4 adaptation, App. A.4)",
    Model.ONESHOT: "Omega~(sqrt(n)) (Thm 4, bench_thm4)",
    Model.NODEL: "large Theta(1) (App. A.4)",
    Model.COMPCOST: "large Theta(1) (App. A.4)",
}

_LENGTH = {
    Model.BASE: "up to omega(poly(n))",
    Model.ONESHOT: "O(Delta*n) (Lemma 1)",
    Model.NODEL: "O(Delta*n) (Lemma 1)",
    Model.COMPCOST: "O(Delta*n) (Lemma 1)",
}


def table2_rows(
    dag: Optional[ComputationDAG] = None,
    red_limit: Optional[int] = None,
) -> List[Dict[str, str]]:
    """The four rows of Table 2.

    The cost-range column is *computed* from :mod:`repro.solvers.bounds`
    on ``dag`` (default: a small pyramid), so it reflects the implemented
    bounds rather than transcribed formulas.
    """
    if dag is None:
        from ..generators.classic import pyramid_dag

        dag = pyramid_dag(3)
    if red_limit is None:
        red_limit = dag.min_red_pebbles

    rows = []
    for model in ALL_MODELS:
        lo = trivial_lower_bound(dag, model, red_limit)
        hi = upper_bound_naive(dag, model)
        rows.append(
            {
                "model": model.value,
                "cost_range": f"[{lo}, {hi}] on {dag.n_nodes}-node example "
                f"(formula [{_range_formula(model)}])",
                "optimal_length": _LENGTH[model],
                "complexity": _COMPLEXITY[model],
                "greedy_ratio": _GREEDY_RATIO[model],
            }
        )
    return rows


def _range_formula(model: Model) -> str:
    if model in (Model.BASE, Model.ONESHOT):
        return "0, (2D+1)n"
    if model is Model.NODEL:
        return "~n, (2D+1)n"
    return "~eps*n, (2D+1+eps)n"
