#!/usr/bin/env python
"""Theorem 2 end-to-end: deciding Hamiltonian Path with a pebble game.

The reduction maps a graph G to a DAG whose optimal pebbling cost hits a
sharp threshold exactly when G has a Hamiltonian path.  This script runs
the reduction *in both directions*:

1. forward — build the pebbling instance, enumerate/optimize visit orders,
   and read the Hamiltonian answer off the pebbling cost;
2. backward — confirm against an independent exact Hamiltonian-path solver
   (Held-Karp).

It also prints the paper's cost anatomy: every consecutive pair of visited
groups that is *not* an edge of G pays extra transfers.

Run:  python examples/hardness_hampath.py
"""

from repro import validate_schedule
from repro.generators import planted_hampath_graph, random_graph, star_graph
from repro.npc import find_hamiltonian_path, has_hamiltonian_path
from repro.reductions import hampath_reduction


def demo(name, graph, model="oneshot"):
    red = hampath_reduction(graph, model)
    cost, order = red.optimal_order()
    threshold = red.decision_threshold()
    says_ham = cost <= threshold
    truth = has_hamiltonian_path(graph)

    print(f"--- {name}: n={graph.n}, m={graph.m}, model={model}")
    print(f"    pebbling DAG: {red.dag.n_nodes} nodes "
          f"({len(red.dag.sources)} sources = contacts, "
          f"{len(red.dag.sinks)} sinks = targets), R = {red.red_limit}")
    print(f"    best visit order {order}: cost {cost} "
          f"(threshold {threshold})")
    print(f"    pebbling verdict: {'HAMILTONIAN' if says_ham else 'no path'}"
          f"   |   Held-Karp verdict: {'HAMILTONIAN' if truth else 'no path'}")
    assert says_ham == truth

    # replay the best order as an explicit schedule through the simulator
    sched = red.schedule_for_order(order)
    report = validate_schedule(red.instance(), sched)
    assert report.ok and report.cost == cost
    print(f"    schedule replay: {len(sched)} moves, simulator cost {report.cost}")

    if truth:
        path = find_hamiltonian_path(graph)
        print(f"    a Hamiltonian path of G: {path}")
        print(f"    adjacent consecutive pairs in best order: "
              f"{red.adjacent_consecutive(order)} / {graph.n - 1}")
    print()


def main() -> None:
    demo("planted Hamiltonian graph", planted_hampath_graph(7, extra_edges=3, seed=4))
    demo("star graph (no Ham. path)", star_graph(6))
    demo("sparse random graph", random_graph(7, 0.3, seed=11))
    demo("planted, nodel model", planted_hampath_graph(6, extra_edges=2, seed=1),
         model="nodel")
    demo("planted, compcost model", planted_hampath_graph(5, extra_edges=2, seed=2),
         model="compcost")

    print("Every verdict agreed with the independent Hamiltonian-path solver.")
    print("Pebbling optimally is at least as hard as Hamiltonian Path (Thm 2).")


if __name__ == "__main__":
    main()
