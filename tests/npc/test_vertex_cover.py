"""Tests for the exact and approximate vertex cover solvers."""

import itertools

from repro.generators import (
    UndirectedGraph,
    complete_graph,
    cycle_graph,
    path_graph,
    planted_vertex_cover_graph,
    random_graph,
    star_graph,
)
from repro.npc import (
    is_vertex_cover,
    max_independent_set,
    min_vertex_cover,
    vertex_cover_2approx,
)


def brute_force_vc_size(graph):
    for k in range(graph.n + 1):
        for cand in itertools.combinations(range(graph.n), k):
            if is_vertex_cover(graph, set(cand)):
                return k
    raise AssertionError("unreachable")


class TestExact:
    def test_path_graph(self):
        assert len(min_vertex_cover(path_graph(6))) == 3
        assert len(min_vertex_cover(path_graph(7))) == 3

    def test_cycle(self):
        assert len(min_vertex_cover(cycle_graph(6))) == 3
        assert len(min_vertex_cover(cycle_graph(7))) == 4

    def test_star_center(self):
        assert min_vertex_cover(star_graph(8)) == {0}

    def test_complete(self):
        assert len(min_vertex_cover(complete_graph(6))) == 5

    def test_edgeless(self):
        assert min_vertex_cover(UndirectedGraph.from_edges(5, [])) == frozenset()

    def test_result_is_always_a_cover(self):
        for seed in range(8):
            g = random_graph(10, 0.4, seed=seed)
            assert is_vertex_cover(g, set(min_vertex_cover(g)))

    def test_agrees_with_brute_force(self):
        for seed in range(8):
            g = random_graph(8, 0.35, seed=seed)
            assert len(min_vertex_cover(g)) == brute_force_vc_size(g)

    def test_planted_cover_found(self):
        g = planted_vertex_cover_graph(12, 3, seed=2)
        assert len(min_vertex_cover(g)) <= 3


class TestApproximation:
    def test_factor_two(self):
        for seed in range(8):
            g = random_graph(12, 0.3, seed=seed)
            approx = vertex_cover_2approx(g)
            assert is_vertex_cover(g, set(approx))
            assert len(approx) <= 2 * len(min_vertex_cover(g))

    def test_tight_on_perfect_matching(self):
        # disjoint edges: approx takes both endpoints, opt takes one each
        g = UndirectedGraph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
        assert len(vertex_cover_2approx(g)) == 6
        assert len(min_vertex_cover(g)) == 3

    def test_empty_graph(self):
        assert vertex_cover_2approx(UndirectedGraph.from_edges(3, [])) == frozenset()


class TestIndependentSet:
    def test_complement_relation(self):
        g = random_graph(9, 0.4, seed=1)
        mis = max_independent_set(g)
        assert len(mis) == g.n - len(min_vertex_cover(g))
        # independence: no edge inside the set
        assert not any(g.has_edge(u, v) for u in mis for v in mis if u < v)

    def test_star_leaves(self):
        assert max_independent_set(star_graph(6)) == frozenset(range(1, 6))


class TestIsVertexCover:
    def test_accepts_valid(self):
        assert is_vertex_cover(path_graph(4), {1, 2})

    def test_rejects_invalid(self):
        assert not is_vertex_cover(path_graph(4), {0})
