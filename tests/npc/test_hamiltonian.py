"""Tests for the exact Hamiltonian path solver."""

import itertools

import networkx as nx

from repro.generators import (
    UndirectedGraph,
    complete_graph,
    cycle_graph,
    path_graph,
    planted_hampath_graph,
    random_graph,
    star_graph,
)
from repro.npc import (
    count_hamiltonian_paths,
    find_hamiltonian_path,
    has_hamiltonian_path,
)


def is_ham_path(graph, path):
    return (
        path is not None
        and sorted(path) == list(range(graph.n))
        and all(graph.has_edge(u, v) for u, v in zip(path, path[1:]))
    )


class TestDecision:
    def test_path_graph_yes(self):
        assert has_hamiltonian_path(path_graph(7))

    def test_cycle_yes(self):
        assert has_hamiltonian_path(cycle_graph(6))

    def test_complete_yes(self):
        assert has_hamiltonian_path(complete_graph(5))

    def test_star_no(self):
        assert not has_hamiltonian_path(star_graph(5))

    def test_disconnected_no(self):
        g = UndirectedGraph.from_edges(4, [(0, 1), (2, 3)])
        assert not has_hamiltonian_path(g)

    def test_empty_edgeless(self):
        assert has_hamiltonian_path(UndirectedGraph.from_edges(0, []))
        assert has_hamiltonian_path(UndirectedGraph.from_edges(1, []))
        assert not has_hamiltonian_path(UndirectedGraph.from_edges(2, []))

    def test_planted_instances_always_yes(self):
        for seed in range(5):
            g = planted_hampath_graph(9, extra_edges=4, seed=seed)
            assert has_hamiltonian_path(g)


class TestPathExtraction:
    def test_extracted_path_is_valid(self):
        for seed in range(5):
            g = planted_hampath_graph(8, extra_edges=3, seed=seed)
            path = find_hamiltonian_path(g)
            assert is_ham_path(g, path)

    def test_path_graph_unique_path(self):
        path = find_hamiltonian_path(path_graph(5))
        assert path in ((0, 1, 2, 3, 4), (4, 3, 2, 1, 0))

    def test_none_when_absent(self):
        assert find_hamiltonian_path(star_graph(5)) is None


class TestCounting:
    def test_path_graph_has_one(self):
        assert count_hamiltonian_paths(path_graph(6)) == 1

    def test_cycle_has_n(self):
        assert count_hamiltonian_paths(cycle_graph(5)) == 5

    def test_complete_graph_count(self):
        # n!/2 undirected Hamiltonian paths in K_n
        assert count_hamiltonian_paths(complete_graph(4)) == 12

    def test_zero_when_absent(self):
        assert count_hamiltonian_paths(star_graph(4)) == 0


class TestAgainstBruteForce:
    def test_random_graphs_agree_with_enumeration(self):
        for seed in range(10):
            g = random_graph(7, 0.35, seed=seed)
            expected = any(
                all(g.has_edge(u, v) for u, v in zip(p, p[1:]))
                for p in itertools.permutations(range(7))
            )
            assert has_hamiltonian_path(g) == expected

    def test_agrees_with_networkx_reachability_sanity(self):
        # a Hamiltonian path implies connectivity
        for seed in range(5):
            g = random_graph(8, 0.3, seed=seed)
            if has_hamiltonian_path(g):
                assert nx.is_connected(g.to_networkx())
