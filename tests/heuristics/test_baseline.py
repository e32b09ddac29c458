"""Tests for the (2*Delta+1)*n naive baseline (Section 3)."""

import pytest

from repro import (
    InfeasibleInstanceError,
    PebblingInstance,
    PebblingSimulator,
    validate_schedule,
)
from repro.generators import (
    binary_tree_dag,
    butterfly_dag,
    chain_dag,
    grid_stencil_dag,
    layered_random_dag,
    pyramid_dag,
)
from repro.heuristics import topological_schedule
from repro.solvers import upper_bound_naive


ALL_MODELS = ["base", "oneshot", "nodel", "compcost"]


class TestBaseline:
    @pytest.mark.parametrize("model", ALL_MODELS)
    @pytest.mark.parametrize(
        "dag_factory",
        [
            lambda: pyramid_dag(3),
            lambda: chain_dag(8),
            lambda: grid_stencil_dag(3, 4),
            lambda: butterfly_dag(2),
        ],
    )
    def test_valid_complete_and_within_bound(self, model, dag_factory):
        dag = dag_factory()
        inst = PebblingInstance(
            dag=dag, model=model, red_limit=dag.min_red_pebbles
        )
        sched = topological_schedule(inst)
        report = validate_schedule(inst, sched)
        assert report.ok, report.violations[:3]
        assert report.cost <= upper_bound_naive(dag, model)

    @pytest.mark.parametrize(
        "dag",
        [pyramid_dag(4), grid_stencil_dag(4, 4), butterfly_dag(3), binary_tree_dag(8)],
        ids=["pyramid4", "grid4x4", "butterfly3", "tree8"],
    )
    def test_feasibility_frontier_is_delta_plus_one(self, dag):
        """Section 3: R = Delta is infeasible, and at R = Delta + 1 the
        naive strategy completes."""
        with pytest.raises(InfeasibleInstanceError):
            PebblingInstance(dag=dag, model="oneshot", red_limit=dag.max_indegree)
        inst = PebblingInstance(
            dag=dag, model="oneshot", red_limit=dag.max_indegree + 1
        )
        assert PebblingSimulator(inst).run(
            topological_schedule(inst), require_complete=True
        ).complete

    def test_works_at_minimum_red_limit(self):
        dag = pyramid_dag(4)
        inst = PebblingInstance(dag=dag, model="nodel", red_limit=3)
        res = PebblingSimulator(inst).run(
            topological_schedule(inst), require_complete=True
        )
        assert res.max_red_in_use <= 3

    def test_never_deletes(self):
        """The baseline must be nodel-safe by construction."""
        from repro import Delete

        dag = grid_stencil_dag(3, 3)
        inst = PebblingInstance(dag=dag, model="nodel", red_limit=3)
        assert topological_schedule(inst).count(Delete) == 0

    def test_cost_is_2indeg_plus_1_per_node(self):
        # exact accounting: sum over nodes of (2*indegree + 1)
        dag = pyramid_dag(2)
        inst = PebblingInstance(dag=dag, model="oneshot", red_limit=3)
        cost = PebblingSimulator(inst).run(
            topological_schedule(inst), require_complete=True
        ).cost
        expected = sum(2 * dag.indegree(v) + 1 for v in dag)
        assert cost == expected

    def test_custom_order(self):
        dag = layered_random_dag([3, 3], indegree=2, seed=0)
        inst = PebblingInstance(dag=dag, model="oneshot", red_limit=3)
        sched = topological_schedule(inst, order=dag.topological_order())
        assert validate_schedule(inst, sched).ok

    def test_rejects_non_topological_order(self):
        dag = chain_dag(3)
        inst = PebblingInstance(dag=dag, model="oneshot", red_limit=2)
        with pytest.raises(ValueError):
            topological_schedule(inst, order=[2, 1, 0])

    def test_rejects_insufficient_r(self):
        dag = pyramid_dag(2)
        inst = PebblingInstance(dag=dag, model="oneshot", red_limit=3)
        inst2 = inst.with_red_limit(3)
        # sneak an instance whose R is below indegree+1 via direct call
        from repro.heuristics.baseline import topological_schedule as ts

        class Fake:
            dag = inst.dag
            red_limit = 2

        with pytest.raises(ValueError):
            ts(Fake())
