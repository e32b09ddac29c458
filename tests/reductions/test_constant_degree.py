"""Tests for the Appendix B constant-indegree transformation."""

import itertools

import pytest

from repro import PebblingSimulator, validate_schedule
from repro.generators import path_graph, random_graph
from repro.reductions import (
    constant_degree_system,
    greedy_grid_construction,
    hampath_reduction,
)


@pytest.fixture
def ham5():
    return hampath_reduction(path_graph(5), "oneshot")


class TestConstruction:
    def test_max_indegree_two(self, ham5):
        cd = constant_degree_system(ham5.system, layers=2)
        assert cd.dag.max_indegree == 2

    def test_red_limit_plus_one(self, ham5):
        cd = constant_degree_system(ham5.system, layers=2)
        assert cd.red_limit == ham5.system.red_limit + 1

    def test_gadget_per_group(self, ham5):
        cd = constant_degree_system(ham5.system, layers=3)
        assert set(cd.gadgets) == set(ham5.system.groups)
        for gid, info in cd.gadgets.items():
            group = cd.groups[gid]
            assert info.left == group.members
            assert len(info.chain) == 3 * len(group.members)

    def test_targets_hang_off_exit(self, ham5):
        cd = constant_degree_system(ham5.system, layers=2)
        for gid, info in cd.gadgets.items():
            for t in cd.groups[gid].targets:
                assert cd.dag.predecessors(t) == (info.exit,)

    def test_precedence_preserved(self, ham5):
        cd = constant_degree_system(ham5.system, layers=2)
        assert cd.precedence() == ham5.system.precedence()

    def test_rejects_zero_layers(self, ham5):
        with pytest.raises(ValueError):
            constant_degree_system(ham5.system, layers=0)


class TestCostPreservation:
    def test_oneshot_costs_identical_all_orders(self):
        """The heart of Appendix B: in oneshot the transformation is
        cost-exact — every visit order prices identically to the plain
        construction (gadget walks are free)."""
        g = random_graph(4, 0.5, seed=7)
        red = hampath_reduction(g, "oneshot")
        cd = constant_degree_system(red.system, layers=2)
        inst = cd.instance("oneshot")
        for order in itertools.permutations(range(4)):
            sched = cd.emit_visit_schedule(order, "oneshot")
            report = validate_schedule(inst, sched)
            assert report.ok, report.violations[:3]
            assert report.cost == red.cost_of_order(order)

    def test_nodel_overhead_is_gadget_node_count(self):
        """Appendix B.1: nodel pays one store per gadget chain node."""
        g = path_graph(5)
        red = hampath_reduction(g, "nodel")
        cd = constant_degree_system(red.system, layers=3)
        order = list(range(5))
        sched = cd.emit_visit_schedule(order, "nodel")
        report = validate_schedule(cd.instance("nodel"), sched)
        assert report.ok
        assert report.cost == red.cost_of_order(order) + cd.n_gadget_nodes

    def test_capacity_is_group_size_plus_two(self, ham5):
        cd = constant_degree_system(ham5.system, layers=2)
        sched = cd.emit_visit_schedule(range(5), "oneshot")
        res = PebblingSimulator(cd.instance("oneshot")).run(
            sched, require_complete=True
        )
        assert res.max_red_in_use == cd.red_limit

    def test_hamiltonian_decision_survives_transformation(self):
        """Thm 2 at Delta = 2: threshold comparison still decides."""
        from repro.npc import has_hamiltonian_path

        for seed in range(4):
            g = random_graph(5, 0.4, seed=seed)
            red = hampath_reduction(g, "oneshot")
            cd = constant_degree_system(red.system, layers=2)
            inst = cd.instance("oneshot")
            best = min(
                PebblingSimulator(inst).run(
                    cd.emit_visit_schedule(order, "oneshot"),
                    require_complete=True,
                ).cost
                for order in itertools.permutations(range(5))
            )
            assert (best <= red.decision_threshold()) == has_hamiltonian_path(g)

    def test_invalid_sequence_rejected(self, ham5):
        cd = constant_degree_system(ham5.system, layers=2)
        with pytest.raises(ValueError):
            cd.emit_visit_schedule([0, 0, 1, 2, 3], "oneshot")

    def test_unsupported_model_rejected(self, ham5):
        cd = constant_degree_system(ham5.system, layers=2)
        with pytest.raises(ValueError):
            cd.emit_visit_schedule(range(5), "base")


class TestGridAtConstantDegree:
    def test_grid_transform_gap_persists(self):
        """Theorem 4 at Delta = 2 (Appendix B.3): the greedy/optimal gap
        survives the transformation."""
        c = greedy_grid_construction(4, 10)
        cd = constant_degree_system(c.system, layers=2)
        assert cd.dag.max_indegree == 2
        inst = cd.instance("oneshot")
        greedy_cost = PebblingSimulator(inst).run(
            cd.emit_visit_schedule(c.predicted_greedy_sequence(), "oneshot"),
            require_complete=True,
        ).cost
        opt_cost = PebblingSimulator(inst).run(
            cd.emit_visit_schedule(c.optimal_sequence(), "oneshot"),
            require_complete=True,
        ).cost
        assert greedy_cost > 2 * opt_cost
        # and both equal their plain-construction counterparts
        assert greedy_cost == c.cost_of_sequence(c.predicted_greedy_sequence())
        assert opt_cost == c.cost_of_sequence(c.optimal_sequence())
