"""Tests for the Theorem 2 Hamiltonian-path reduction (Figure 5)."""

import itertools

import pytest

from repro import PebblingSimulator, validate_schedule
from repro.generators import (
    UndirectedGraph,
    complete_graph,
    cycle_graph,
    path_graph,
    random_graph,
    star_graph,
)
from repro.npc import has_hamiltonian_path
from repro.reductions import hampath_reduction
from repro.solvers import solve_optimal

ALL_MODELS = ["oneshot", "nodel", "base", "compcost"]


class TestConstruction:
    def test_node_counts_match_paper(self):
        """'a DAG with altogether N*(N-1) - M source nodes and N sink
        nodes' (Section 6)."""
        g = random_graph(5, 0.5, seed=1)
        red = hampath_reduction(g, "oneshot")
        n, m = g.n, g.m
        assert red.dag.n_nodes == (n * (n - 1) - m) + n
        assert len(red.dag.sources) == n * (n - 1) - m
        assert len(red.dag.sinks) == n

    def test_red_limit_is_n(self):
        g = path_graph(5)
        assert hampath_reduction(g, "oneshot").red_limit == 5

    def test_merged_contacts_for_edges(self):
        g = path_graph(3)  # edges (0,1), (1,2)
        red = hampath_reduction(g, "oneshot")
        # contact of 0 for 1 and of 1 for 0 merged
        assert ("v", 0, 1) in red.groups[0] and ("v", 0, 1) in red.groups[1]
        # 0 and 2 not adjacent: contacts distinct
        assert ("v", 0, 2) in red.groups[0] and ("v", 2, 0) in red.groups[2]

    def test_group_sizes(self):
        g = cycle_graph(5)
        red = hampath_reduction(g, "oneshot")
        assert all(len(grp) == 4 for grp in red.groups)

    def test_h2c_attached_for_base(self):
        g = path_graph(4)
        red = hampath_reduction(g, "base")
        assert red.h2c is not None
        # every contact is guarded: no more contact sources
        for grp in red.groups:
            for c in grp:
                assert red.dag.predecessors(c)

    def test_minimum_sizes(self):
        with pytest.raises(ValueError):
            hampath_reduction(path_graph(2), "oneshot")
        with pytest.raises(ValueError):
            hampath_reduction(path_graph(3), "base")


class TestCostFormulas:
    """The per-order analytic costs must equal the simulated schedule cost
    for every order, in every model (exhaustive on N=4)."""

    @pytest.mark.parametrize("model", ALL_MODELS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_formula_equals_simulation(self, model, seed):
        g = random_graph(4, 0.5, seed=seed)
        red = hampath_reduction(g, model)
        inst = red.instance()
        sim = PebblingSimulator(inst)
        for order in itertools.permutations(range(4)):
            sched = red.schedule_for_order(order)
            report = validate_schedule(inst, sched)
            assert report.ok, (order, report.violations[:3])
            assert report.cost == red.cost_of_order(order)
            assert sim.run(sched, require_complete=True).cost == report.cost

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_threshold_met_iff_hamiltonian(self, model):
        for g, expect in [
            (path_graph(5), True),
            (cycle_graph(5), True),
            (star_graph(5), False),
            (complete_graph(4), True),
            (UndirectedGraph.from_edges(4, [(0, 1), (2, 3)]), False),
        ]:
            red = hampath_reduction(g, model)
            assert red.decide_hamiltonian_path() == expect
            assert expect == has_hamiltonian_path(g)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_held_karp_cost_matches_best_enumerated_order(self, model):
        g = random_graph(5, 0.4, seed=3)
        red = hampath_reduction(g, model)
        best = min(
            red.cost_of_order(order)
            for order in itertools.permutations(range(5))
        )
        hk_cost, hk_order = red.optimal_order()
        assert hk_cost == best
        assert red.cost_of_order(hk_order) == best

    def test_gap_between_ham_and_non_ham_orders(self):
        """A Hamiltonian order beats any order that misses an adjacency."""
        g = path_graph(5)
        red = hampath_reduction(g, "oneshot")
        ham = red.cost_of_order([0, 1, 2, 3, 4])
        broken = red.cost_of_order([0, 2, 1, 3, 4])
        assert ham < broken


class TestOptimalityAgainstExactSolver:
    """On tiny instances the canonical strategy must equal the true
    optimum over *all* pebblings, not just visit orders."""

    @pytest.mark.parametrize("model", ["oneshot", "nodel"])
    def test_strategy_is_globally_optimal_n3(self, model):
        for edges in [[(0, 1), (1, 2)], [(0, 1)], []]:
            g = UndirectedGraph.from_edges(3, edges)
            red = hampath_reduction(g, model)
            best_order = min(
                red.cost_of_order(order)
                for order in itertools.permutations(range(3))
            )
            exact = solve_optimal(
                red.instance(), return_schedule=False, budget=3_000_000
            )
            assert exact.cost == best_order


class TestInverseReduction:
    @pytest.mark.parametrize("model", ["oneshot", "nodel"])
    def test_pebbling_decides_hampath_on_random_graphs(self, model):
        for seed in range(6):
            g = random_graph(6, 0.4, seed=seed)
            red = hampath_reduction(g, model)
            assert red.decide_hamiltonian_path() == has_hamiltonian_path(g)
