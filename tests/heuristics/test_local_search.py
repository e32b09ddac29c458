"""Tests for local search over computation orders."""

import pytest

from repro import PebblingInstance, PebblingSimulator, validate_schedule
from repro.generators import grid_stencil_dag, layered_random_dag, pyramid_dag
from repro.heuristics import greedy_pebble
from repro.heuristics.local_search import improve_order
from repro.reductions import greedy_grid_construction, grid_group_greedy
from repro.solvers import solve_optimal


def make(dag, R):
    return PebblingInstance(dag=dag, model="oneshot", red_limit=R)


class TestImproveOrder:
    def test_never_worse_than_start(self):
        inst = make(grid_stencil_dag(4, 4), 3)
        result = improve_order(inst, max_evaluations=200)
        assert result.cost <= result.initial_cost

    def test_result_schedule_valid_and_priced(self):
        inst = make(pyramid_dag(3), 3)
        result = improve_order(inst, max_evaluations=100)
        report = validate_schedule(inst, result.schedule)
        assert report.ok
        assert report.cost == result.cost

    def test_order_stays_topological(self):
        inst = make(layered_random_dag([3, 3, 3], indegree=2, seed=4), 3)
        result = improve_order(inst, max_evaluations=150, seed=3)
        pos = {v: i for i, v in enumerate(result.order)}
        for u, v in inst.dag.edges():
            assert pos[u] < pos[v]

    def test_reinsert_neighborhood(self):
        inst = make(grid_stencil_dag(3, 4), 3)
        result = improve_order(
            inst, neighborhood="reinsert", max_evaluations=200, seed=1
        )
        assert result.cost <= result.initial_cost
        assert validate_schedule(inst, result.schedule).ok

    def test_rejects_unknown_neighborhood(self):
        inst = make(pyramid_dag(2), 3)
        with pytest.raises(ValueError):
            improve_order(inst, neighborhood="teleport")

    def test_rejects_non_topological_start(self):
        from repro.generators import chain_dag

        inst = make(chain_dag(3), 2)
        with pytest.raises(ValueError):
            improve_order(inst, order=[2, 1, 0])

    def test_rejects_partial_order(self):
        from repro.generators import chain_dag

        inst = make(chain_dag(3), 2)
        with pytest.raises(ValueError):
            improve_order(inst, order=[0, 1])

    def test_evaluation_budget_respected(self):
        inst = make(grid_stencil_dag(4, 4), 3)
        result = improve_order(inst, max_evaluations=10)
        assert result.evaluations <= 10

    def test_can_repair_a_bad_greedy_order(self):
        """Start from a deliberately poor order and verify the search
        recovers at least part of the gap to the optimum."""
        dag = pyramid_dag(3)
        inst = make(dag, 3)
        greedy = greedy_pebble(inst)
        improved = improve_order(
            inst, order=greedy.order, max_evaluations=500, seed=2
        )
        opt = solve_optimal(inst, return_schedule=False).cost
        assert opt <= improved.cost <= greedy.cost

    def test_cannot_close_the_theorem4_gap(self):
        """Hill climbing improves the greedy order on the Theorem 4 grid
        but cannot reassemble whole diagonals: the gap to the optimum
        survives and keeps growing with the instance."""
        gaps = []
        for ell, kc in ((3, 6), (4, 10), (5, 14)):
            c = greedy_grid_construction(ell, kc)
            inst = c.instance()
            group_sched, _ = grid_group_greedy(c)
            group = PebblingSimulator(inst).run(group_sched, require_complete=True).cost
            greedy = greedy_pebble(inst)
            ls = improve_order(inst, order=greedy.order, max_evaluations=300, seed=1).cost
            opt = c.cost_of_sequence(c.optimal_sequence())
            assert opt <= ls <= group, (ell, kc)
            gaps.append(ls / opt)
        assert gaps[-1] > 1.5
        assert gaps[-1] >= gaps[0]

    def test_deterministic_per_seed(self):
        inst = make(grid_stencil_dag(4, 4), 3)
        a = improve_order(inst, max_evaluations=120, seed=9)
        b = improve_order(inst, max_evaluations=120, seed=9)
        assert a.order == b.order and a.cost == b.cost


class TestValidationAndNeighborhoodRegressions:
    def test_equal_repr_distinct_nodes_not_a_permutation(self):
        """Regression: the starting-order check used to compare node
        *reprs*, so a list repeating one of two equal-repr nodes passed
        as a 'permutation'."""

        class Twin:
            def __repr__(self):
                return "<twin>"

        from repro import ComputationDAG

        a, b = Twin(), Twin()
        dag = ComputationDAG(nodes=[a, b])
        inst = PebblingInstance(dag=dag, model="oneshot", red_limit=2)
        with pytest.raises(ValueError):
            improve_order(inst, order=[a, a])
        # the genuine permutation is accepted and searchable
        result = improve_order(inst, order=[a, b], max_evaluations=10)
        assert sorted(result.order, key=id) == sorted([a, b], key=id)

    def test_reinsert_single_node_dag(self):
        from repro import ComputationDAG

        dag = ComputationDAG(nodes=["x"])
        inst = PebblingInstance(dag=dag, model="oneshot", red_limit=1)
        result = improve_order(inst, neighborhood="reinsert", max_evaluations=10)
        assert result.evaluations == 1  # nothing to move

    def test_reinsert_never_burns_attempts_on_identity(self):
        """Regression: i == j draws used to consume a neighborhood
        attempt on a no-op candidate.  With two independent nodes every
        draw now yields the one genuine alternative order, so the
        stalled round performs exactly n real evaluations."""
        from repro import ComputationDAG

        inst = make(ComputationDAG(nodes=["a", "b"]), 2)
        for seed in range(5):
            result = improve_order(
                inst, neighborhood="reinsert", max_evaluations=100, seed=seed
            )
            assert result.evaluations == 3  # 1 initial + 2 genuine candidates
