"""Tests for the IDA* solver — the Dijkstra cross-check."""

import pytest

from repro import BudgetExceededError, ComputationDAG, PebblingInstance, validate_schedule
from repro.generators import chain_dag, pyramid_dag, random_dag
from repro.solvers import solve_optimal, solve_optimal_idastar


ALL_MODELS = ["base", "oneshot", "nodel", "compcost"]


class TestAgreementWithDijkstra:
    """The load-bearing property: two independent exact algorithms must
    return identical optima everywhere."""

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_pyramid(self, model):
        inst = PebblingInstance(dag=pyramid_dag(2), model=model, red_limit=3)
        assert (
            solve_optimal_idastar(inst, return_schedule=False).cost
            == solve_optimal(inst, return_schedule=False).cost
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_random_dags_oneshot(self, seed):
        dag = random_dag(7, 0.35, seed=seed, max_indegree=2)
        inst = PebblingInstance(dag=dag, model="oneshot", red_limit=3)
        assert (
            solve_optimal_idastar(inst, return_schedule=False).cost
            == solve_optimal(inst, return_schedule=False).cost
        )

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_gadget_instance(self, model):
        from repro.gadgets import h2c_dag

        dag, _ = h2c_dag(4)
        inst = PebblingInstance(dag=dag, model=model, red_limit=4)
        assert (
            solve_optimal_idastar(inst, return_schedule=False).cost
            == solve_optimal(inst, return_schedule=False).cost
        )


class TestContracts:
    def test_returns_valid_optimal_schedule(self):
        inst = PebblingInstance(dag=pyramid_dag(2), model="oneshot", red_limit=3)
        res = solve_optimal_idastar(inst)
        report = validate_schedule(inst, res.schedule)
        assert report.ok
        assert report.cost == res.cost

    def test_empty_dag(self):
        inst = PebblingInstance(dag=ComputationDAG(), model="oneshot", red_limit=1)
        res = solve_optimal_idastar(inst)
        assert res.cost == 0 and len(res.schedule) == 0

    def test_zero_cost_instances_terminate(self):
        # all-free pebbling: the first threshold (0) must already succeed
        inst = PebblingInstance(dag=chain_dag(6), model="oneshot", red_limit=2)
        res = solve_optimal_idastar(inst, return_schedule=False)
        assert res.cost == 0

    def test_budget_guard(self):
        inst = PebblingInstance(dag=pyramid_dag(3), model="oneshot", red_limit=4)
        with pytest.raises(BudgetExceededError):
            solve_optimal_idastar(inst, budget=10)

    def test_heuristic_compatible(self):
        for model in ("oneshot", "compcost"):
            inst = PebblingInstance(dag=pyramid_dag(2), model=model, red_limit=3)
            plain = solve_optimal_idastar(
                inst, heuristic=None, return_schedule=False
            )
            guided = solve_optimal_idastar(inst, return_schedule=False)
            assert plain.cost == guided.cost, model
            assert guided.expanded <= plain.expanded, model
