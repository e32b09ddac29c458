"""Tests for the beam-search pebbler."""

import pytest

from repro import PebblingInstance, validate_schedule
from repro.generators import (
    chain_dag,
    grid_stencil_dag,
    layered_random_dag,
    pyramid_dag,
)
from repro.heuristics import beam_search_pebble
from repro.reductions import greedy_grid_construction
from repro.solvers import solve_optimal


def make(dag, R, model="oneshot"):
    return PebblingInstance(dag=dag, model=model, red_limit=R)


class TestBeamSearch:
    def test_schedule_valid_and_priced(self):
        inst = make(pyramid_dag(3), 3)
        res = beam_search_pebble(inst, beam_width=8)
        report = validate_schedule(inst, res.schedule)
        assert report.ok
        assert report.cost == res.cost

    def test_order_is_complete_permutation(self):
        dag = grid_stencil_dag(3, 3)
        res = beam_search_pebble(make(dag, 3), beam_width=4)
        assert sorted(res.order, key=repr) == sorted(dag.nodes, key=repr)

    def test_never_beats_exact_optimum(self):
        for seed in (0, 1):
            dag = layered_random_dag([3, 3, 2], indegree=2, seed=seed)
            inst = make(dag, 3)
            opt = solve_optimal(inst, return_schedule=False).cost
            assert beam_search_pebble(inst, beam_width=8).cost >= opt

    def test_wide_beam_reaches_optimum_on_pyramid(self):
        inst = make(pyramid_dag(3), 3)
        opt = solve_optimal(inst, return_schedule=False).cost
        assert beam_search_pebble(inst, beam_width=16).cost == opt

    def test_wide_beam_reaches_optimum_on_grid(self):
        inst = make(grid_stencil_dag(4, 4), 3)
        # the optimum is pinned as GOLDEN_LARGE's grid:4x4/oneshot/R3
        # entry in tests/solvers/test_golden_optima.py
        assert beam_search_pebble(inst, beam_width=16).cost == 12

    def test_wider_beams_never_hurt_on_test_family(self):
        inst = make(grid_stencil_dag(4, 4), 3)
        costs = [
            beam_search_pebble(inst, beam_width=w).cost for w in (1, 4, 16)
        ]
        assert costs[2] <= costs[1] <= costs[0]

    def test_theorem4_grid_defeats_a_wide_beam(self):
        """The Theorem 4 grid hides the good orders behind dependencies:
        even a width-16 beam stays above the diagonal sweep's optimum."""
        c = greedy_grid_construction(3, 6)
        optimal = c.cost_of_sequence(c.optimal_sequence())
        assert beam_search_pebble(c.instance(), beam_width=16).cost > optimal

    def test_deterministic(self):
        inst = make(grid_stencil_dag(3, 4), 3)
        a = beam_search_pebble(inst, beam_width=4)
        b = beam_search_pebble(inst, beam_width=4)
        assert a.order == b.order and a.cost == b.cost

    def test_chain_free(self):
        inst = make(chain_dag(12), 2)
        assert beam_search_pebble(inst, beam_width=2).cost == 0

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            beam_search_pebble(make(chain_dag(3), 2), beam_width=0)

    @pytest.mark.parametrize("model", ["base", "nodel", "compcost"])
    def test_other_models_supported(self, model):
        inst = make(pyramid_dag(2), 3, model)
        res = beam_search_pebble(inst, beam_width=4)
        assert validate_schedule(inst, res.schedule).ok

    def test_expansion_count_reported(self):
        res = beam_search_pebble(make(pyramid_dag(2), 3), beam_width=2)
        assert res.expanded >= pyramid_dag(2).n_nodes


class TestCloning:
    def test_clone_is_independent(self):
        from repro.heuristics import OnlinePebbler

        inst = make(chain_dag(4), 2)
        a = OnlinePebbler(inst)
        a.compute_next(0)
        b = a.clone()
        b.compute_next(1)
        assert 1 in b.computed and 1 not in a.computed
        assert len(b.moves) == len(a.moves) + 1
