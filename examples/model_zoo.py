#!/usr/bin/env python
"""A tour of the four model variants on one workload (Sections 1 & 4).

Same DAG, same R, four rulebooks:

* base      — compute & delete free, recomputation unlimited;
* oneshot   — each node computable once (red-blue-white pebbling);
* nodel     — pebbles can never be removed, only demoted to blue;
* compcost  — recomputation allowed but every compute costs epsilon.

The script pebbles a wavefront stencil grid optimally under each model and
dissects where the costs come from, reproducing the Table 1 / Table 2
story: base is degenerate, nodel is forced to pay ~n, compcost sits in
between and keeps the problem in NP (Lemma 1).

Run:  python examples/model_zoo.py
"""

from repro import ALL_MODELS, PebblingInstance
from repro.analysis import render_table, table1_rows
from repro.generators import grid_stencil_dag
from repro.solvers import (
    solve_optimal,
    trivial_lower_bound,
    upper_bound_naive,
)


def main() -> None:
    print(render_table(table1_rows(), title="Table 1 (from the implementation)"))
    print()

    dag = grid_stencil_dag(3, 3)
    r = 3
    print(f"workload: 3x3 wavefront stencil ({dag.n_nodes} nodes, "
          f"Delta={dag.max_indegree}), R={r}")
    print()

    rows = []
    for model in ALL_MODELS:
        inst = PebblingInstance(dag=dag, model=model, red_limit=r)
        res = solve_optimal(inst)
        rows.append(
            {
                "model": model.value,
                "optimal cost": str(res.cost),
                "moves": res.length,
                "lower bound": str(trivial_lower_bound(dag, model, r)),
                "upper bound": str(upper_bound_naive(dag, model)),
                "states explored": res.expanded,
            }
        )
    print(render_table(rows, title="exact optima per model"))
    print()
    print("Reading the table:")
    print(" * base exploits free recomputation: the cheapest of the four.")
    print(" * oneshot must preserve every reused value -> extra transfers.")
    print(" * nodel must demote every dead pebble to blue -> ~n floor.")
    print(" * compcost = base + epsilon per compute: same structure as")
    print("   base but its optimal pebblings have polynomial length")
    print("   (Lemma 1), putting the problem in NP.")


if __name__ == "__main__":
    main()
