"""Tests for the Theorem 3 vertex-cover reduction (Figures 6-7)."""

import pytest

from repro import PebblingSimulator, validate_schedule
from repro.generators import (
    cycle_graph,
    path_graph,
    random_graph,
    star_graph,
)
from repro.npc import min_vertex_cover
from repro.reductions import vertex_cover_reduction


class TestConstruction:
    def test_two_groups_per_node(self):
        g = path_graph(4)
        red = vertex_cover_reduction(g, k=6)
        assert len(red.system.groups) == 8

    def test_group_sizes_all_k(self):
        g = cycle_graph(5)
        red = vertex_cover_reduction(g, k=8)
        assert all(grp.size == 8 for grp in red.system.groups.values())

    def test_common_nodes_shared_between_levels(self):
        g = path_graph(3)
        red = vertex_cover_reduction(g, k=5)
        for a in range(3):
            g1 = set(red.system.groups[(a, 1)].members)
            g2 = set(red.system.groups[(a, 2)].members)
            assert set(red.common[a]) <= g1 and set(red.common[a]) <= g2
            assert len(red.common[a]) == red.k_common

    def test_first_level_has_n_minus_1_targets(self):
        g = path_graph(4)
        red = vertex_cover_reduction(g, k=6)
        assert len(red.system.groups[(0, 1)].targets) == 3
        assert len(red.system.groups[(0, 2)].targets) == 1

    def test_edge_targets_embedded_in_second_level(self):
        g = path_graph(3)  # edges (0,1), (1,2)
        red = vertex_cover_reduction(g, k=5)
        # t_{b,1,a} in V_{a,2} for every edge (a,b)
        assert ("t1", 1, 0) in red.system.groups[(0, 2)].members
        assert ("t1", 0, 1) in red.system.groups[(1, 2)].members
        assert ("t1", 2, 0) not in red.system.groups[(0, 2)].members

    def test_precedence_matches_edges(self):
        g = path_graph(3)
        red = vertex_cover_reduction(g, k=5)
        prec = set(red.system.precedence())
        assert ((1, 1), (0, 2)) in prec  # edge (0,1)
        assert ((0, 1), (1, 2)) in prec
        assert ((2, 1), (0, 2)) not in prec  # no edge (0,2)

    def test_default_k_is_polynomially_large(self):
        g = path_graph(4)
        red = vertex_cover_reduction(g)
        assert red.k == 4 * 4 + 4 + 1

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            vertex_cover_reduction(path_graph(4), k=4)


class TestSequences:
    def test_cover_sequence_is_valid(self):
        g = cycle_graph(5)
        red = vertex_cover_reduction(g, k=8)
        seq = red.sequence_for_cover(min_vertex_cover(g))
        assert red.system.valid_sequence(seq)

    def test_rejects_non_cover(self):
        g = path_graph(4)
        red = vertex_cover_reduction(g, k=6)
        with pytest.raises(ValueError):
            red.sequence_for_cover({0})

    def test_consecutive_pairs_complement_cover(self):
        g = cycle_graph(5)
        red = vertex_cover_reduction(g, k=8)
        vc = min_vertex_cover(g)
        seq = red.sequence_for_cover(vc)
        assert red.consecutive_pairs(seq) == g.n - len(vc)
        assert red.implied_cover(seq) == vc

    def test_schedule_valid_and_complete(self):
        g = random_graph(5, 0.4, seed=2)
        red = vertex_cover_reduction(g, k=8)
        seq = red.sequence_for_cover(min_vertex_cover(g))
        sched = red.schedule_for_sequence(seq)
        report = validate_schedule(red.instance(), sched)
        assert report.ok, report.violations[:3]

    def test_capacity_respected(self):
        g = path_graph(4)
        red = vertex_cover_reduction(g, k=6)
        seq = red.sequence_for_cover(min_vertex_cover(g))
        res = PebblingSimulator(red.instance()).run(
            red.schedule_for_sequence(seq), require_complete=True
        )
        assert res.max_red_in_use <= red.red_limit


class TestCostStructure:
    def test_cost_tracks_cover_size(self):
        """Bigger covers => proportionally bigger cost (the 2k'|VC| law)."""
        g = star_graph(6)  # VC_min = {center}, but any leaf set also covers
        red = vertex_cover_reduction(g, k=30)
        small = red.cost_of_cover({0})
        big = red.cost_of_cover({0, 1, 2, 3})
        assert small < big
        # dominant-term prediction within O(N^2) slack
        assert abs(small - red.dominant_term(1)) <= red.slack()
        assert abs(big - red.dominant_term(4)) <= red.slack()

    def test_dominant_term_dominates_at_large_k(self):
        g = cycle_graph(6)
        red = vertex_cover_reduction(g, k=150)
        vc = min_vertex_cover(g)
        cost = red.cost_of_cover(vc)
        dom = red.dominant_term(len(vc))
        assert dom <= cost <= dom + red.slack()
        # relative error shrinks with k
        assert float(cost) / dom < 1.2

    def test_lower_bound_below_optimal_strategy(self):
        g = random_graph(6, 0.5, seed=4)
        red = vertex_cover_reduction(g, k=60)
        assert red.lower_bound() <= red.optimal_cost_upper_bound()

    def test_approx_cover_cost_within_factor_two_plus_slack(self):
        """The 2-approx cover's pebbling is within ~2x of the optimum —
        and by Theorem 3 + UGC nothing below 2 is achievable in general."""
        g = random_graph(7, 0.4, seed=5)
        red = vertex_cover_reduction(g, k=100)
        opt = red.optimal_cost_upper_bound()
        approx = red.approx_cost_upper_bound()
        assert approx <= 2 * opt + red.slack()

    def test_nodel_costs_more(self):
        """nodel forces common nodes blue even in consecutive visits
        (the reason Theorem 3 does not transfer to nodel)."""
        g = path_graph(4)
        red = vertex_cover_reduction(g, k=10)
        seq = red.sequence_for_cover(min_vertex_cover(g))
        assert red.cost_of_sequence(seq, "nodel") > red.cost_of_sequence(
            seq, "oneshot"
        )
