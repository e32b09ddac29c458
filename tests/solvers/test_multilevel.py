"""The exact multi-level solver: golden 2-level equivalence and bounds.

A 2-level hierarchy with capacities ``(R, unbounded)`` and unit transfer
costs *is* the red-blue base game (:func:`two_level_equivalent`), so on
every (dag, R) combination of the pinned golden-optima table the packed
multi-level solver must return the same optimum as both red-blue engines
— three structurally different searches agreeing on one number.
"""

from fractions import Fraction

import pytest

from repro import PebblingInstance
from repro.core.errors import BudgetExceededError
from repro.generators import pyramid_dag
from repro.multilevel import (
    HierarchySpec,
    MultilevelInstance,
    MultilevelSimulator,
    multilevel_topological_schedule,
    two_level_equivalent,
)
from repro.solvers import (
    multilevel_cost_bounds,
    solve_multilevel_optimal,
    solve_optimal,
)
from repro.solvers.kernel import astar_bits

from ..legacy_reference import solve_optimal_legacy
from .test_golden_optima import _FACTORIES, GOLDEN

#: every distinct (dag, R) combination of the golden table
COMBOS = sorted({(dag, red) for dag, _model, red, _cost in GOLDEN})

#: (expanded, generated) of ``solve_multilevel_optimal`` on each COMBOS
#: cell, recorded with dominance pruning switched off just before that
#: pruning was deleted; pinned like ``BITS_WORK`` in test_golden_optima.
ML_WORK = {
    ("chain:8", 2): (13, 36),
    ("chain:8", 3): (28, 117),
    ("grid:3x3", 3): (967, 1762),
    ("h2c:4", 4): (1265, 1578),
    ("h2c:4", 5): (425, 794),
    ("pyramid:2", 3): (117, 169),
    ("pyramid:2", 4): (15, 55),
    ("pyramid:2", 5): (13, 46),
    ("pyramid:3", 3): (6159, 7547),
    ("pyramid:3", 4): (3006, 5932),
    ("tradeoff:2x6", 4): (78, 358),
    ("tradeoff:2x6", 5): (107, 608),
    ("tradeoff:2x6", 6): (63, 399),
    ("tree:4", 3): (311, 467),
    ("tree:4", 4): (32, 129),
}


@pytest.fixture(scope="module")
def dags():
    return {name: factory() for name, factory in _FACTORIES.items()}


class TestTwoLevelGoldenEquivalence:
    @pytest.mark.parametrize(
        "dag_name,red", COMBOS, ids=[f"{d}-R{r}" for d, r in COMBOS]
    )
    def test_matches_both_red_blue_engines(self, dags, dag_name, red):
        ml = MultilevelInstance(
            dag=dags[dag_name],
            spec=HierarchySpec(capacities=(red, None), transfer_costs=(Fraction(1),)),
        )
        rb = two_level_equivalent(ml)
        result = solve_multilevel_optimal(ml)
        bits = solve_optimal(rb, return_schedule=False).cost
        legacy = solve_optimal_legacy(rb, return_schedule=False).cost
        assert result.cost == bits == legacy
        assert (result.expanded, result.generated) == ML_WORK[(dag_name, red)]
        # the reconstructed move list must be independently auditable
        replay = MultilevelSimulator(ml).run(result.moves, require_complete=True)
        assert replay.cost == result.cost


@pytest.fixture
def three_level():
    return MultilevelInstance(
        dag=pyramid_dag(3),
        spec=HierarchySpec(
            capacities=(3, 6, None), transfer_costs=(Fraction(1), Fraction(4))
        ),
    )


class TestThreeLevel:
    def test_exact_bounded_by_baseline_and_replayable(self, three_level):
        result = solve_multilevel_optimal(three_level)
        topo = MultilevelSimulator(three_level).run(
            multilevel_topological_schedule(three_level), require_complete=True
        )
        assert result.cost <= topo.cost
        replay = MultilevelSimulator(three_level).run(
            result.moves, require_complete=True
        )
        assert replay.cost == result.cost

    def test_priced_computation_is_charged(self):
        ml = MultilevelInstance(
            dag=pyramid_dag(2),
            spec=HierarchySpec(
                capacities=(6, None),
                transfer_costs=(Fraction(1),),
                compute_cost=Fraction(1, 100),
            ),
        )
        result = solve_multilevel_optimal(ml)
        # R=6 holds the whole pyramid: no transfers, one compute per node
        assert result.cost == Fraction(6, 100)

    def test_mid_level_capacity_changes_the_optimum(self):
        dag = pyramid_dag(3)
        wide = MultilevelInstance(
            dag=dag,
            spec=HierarchySpec(
                capacities=(3, 8, None), transfer_costs=(Fraction(1), Fraction(100))
            ),
        )
        narrow = MultilevelInstance(
            dag=dag,
            spec=HierarchySpec(
                capacities=(3, 1, None), transfer_costs=(Fraction(1), Fraction(100))
            ),
        )
        cost_wide = solve_multilevel_optimal(wide, return_schedule=False).cost
        cost_narrow = solve_multilevel_optimal(narrow, return_schedule=False).cost
        assert cost_wide <= cost_narrow


class TestBudgetAndBounds:
    def test_budget_raises_by_default(self, three_level):
        with pytest.raises(BudgetExceededError):
            solve_multilevel_optimal(three_level, budget=5)

    @pytest.mark.parametrize(
        "solve", [solve_multilevel_optimal, astar_bits],
        ids=["multilevel", "bits"],
    )
    @pytest.mark.parametrize("budget", [5, 2_000_000])
    def test_unknown_on_exhausted_mode_rejected_up_front(
        self, three_level, solve, budget
    ):
        if solve is solve_multilevel_optimal:
            inst = three_level
        else:
            inst = PebblingInstance(dag=pyramid_dag(3), model="base", red_limit=3)
        with pytest.raises(ValueError, match="on_exhausted"):
            solve(inst, budget=budget, on_exhausted="bounds")

    def test_bounds_bracket_the_optimum(self, three_level):
        exact = solve_multilevel_optimal(three_level, return_schedule=False).cost
        lower, upper = multilevel_cost_bounds(three_level, node_budget=25)
        assert lower <= exact <= upper

    def test_bounds_collapse_when_search_finishes(self, three_level):
        exact = solve_multilevel_optimal(three_level, return_schedule=False).cost
        lower, upper = multilevel_cost_bounds(three_level, node_budget=200_000)
        assert lower == upper == exact

    def test_empty_dag_is_free(self):
        from repro import ComputationDAG

        ml = MultilevelInstance(
            dag=ComputationDAG(),
            spec=HierarchySpec(capacities=(2, None), transfer_costs=(Fraction(1),)),
        )
        result = solve_multilevel_optimal(ml)
        assert result.cost == 0
        assert result.moves == []
