"""Extension experiment — multi-level memory hierarchies.

The paper's related work points at the multi-level generalisation of
red-blue pebbling (Carpenter et al.).  This experiment:

* validates the generalisation against the core engine: a 2-level
  hierarchy with unit costs prices translated schedules identically to
  the red-blue base game;
* sweeps hierarchy depth on a stencil workload, showing how traffic
  concentrates on the cheapest sufficient boundary when a near level is
  large enough to hold the working set.

Run standalone:  python benchmarks/bench_multilevel.py
"""

from fractions import Fraction

from repro import PebblingSimulator
from repro.analysis import render_table
from repro.generators import grid_stencil_dag, pyramid_dag
from repro.heuristics import fixed_order_schedule
from repro.multilevel import (
    HierarchySpec,
    MLCompute,
    MLDelete,
    MLMove,
    MultilevelInstance,
    MultilevelSimulator,
    multilevel_topological_schedule,
    two_level_equivalent,
)


def translate(rb_schedule):
    from repro import Compute, Load, Store

    out = []
    for move in rb_schedule:
        if isinstance(move, Compute):
            out.append(MLCompute(move.node))
        elif isinstance(move, Store):
            out.append(MLMove(move.node, 1))
        elif isinstance(move, Load):
            out.append(MLMove(move.node, 0))
        else:
            out.append(MLDelete(move.node))
    return out


def reproduce_equivalence():
    rows = []
    for name, dag, r in [
        ("pyramid(3)", pyramid_dag(3), 3),
        ("grid(4x4)", grid_stencil_dag(4, 4), 3),
    ]:
        spec = HierarchySpec(capacities=(r, None), transfer_costs=(Fraction(1),))
        ml = MultilevelInstance(dag=dag, spec=spec)
        rb = two_level_equivalent(ml)
        rb_sched = fixed_order_schedule(rb)
        rb_cost = PebblingSimulator(rb).run(rb_sched, require_complete=True).cost
        ml_cost = MultilevelSimulator(ml).run(
            translate(rb_sched), require_complete=True
        ).cost
        rows.append(
            {
                "dag": name,
                "red-blue cost": str(rb_cost),
                "2-level cost": str(ml_cost),
                "identical": rb_cost == ml_cost,
            }
        )
    return rows


def reproduce_depth_sweep():
    dag = grid_stencil_dag(4, 4)
    rows = []
    inst2 = MultilevelInstance(
        dag=dag,
        spec=HierarchySpec(capacities=(3, None), transfer_costs=(Fraction(100),)),
    )
    cost2 = MultilevelSimulator(inst2).run(
        multilevel_topological_schedule(inst2), require_complete=True
    ).cost
    rows.append({"hierarchy": "2-level (3 | inf), boundary 100",
                 "park": "slow", "cost": str(cost2)})

    spec3 = HierarchySpec(
        capacities=(3, 64, None), transfer_costs=(Fraction(1), Fraction(100))
    )
    inst3 = MultilevelInstance(dag=dag, spec=spec3)
    cost3_far = MultilevelSimulator(inst3).run(
        multilevel_topological_schedule(inst3), require_complete=True
    ).cost
    cost3_near = MultilevelSimulator(inst3).run(
        multilevel_topological_schedule(inst3, park_level=1),
        require_complete=True,
    ).cost
    rows.append({"hierarchy": "3-level (3 | 64 | inf), boundaries 1/100",
                 "park": "slow", "cost": str(cost3_far)})
    rows.append({"hierarchy": "3-level (3 | 64 | inf), boundaries 1/100",
                 "park": "mid", "cost": str(cost3_near)})
    return rows


def test_multilevel_two_level_equivalence(benchmark):
    rows = benchmark.pedantic(reproduce_equivalence, rounds=1, iterations=1)
    assert all(r["identical"] for r in rows)


def test_multilevel_interposed_cache_pays_off(benchmark):
    rows = benchmark.pedantic(reproduce_depth_sweep, rounds=1, iterations=1)
    two_level = Fraction(rows[0]["cost"])
    three_far = Fraction(rows[1]["cost"])
    three_near = Fraction(rows[2]["cost"])
    # parking at the interposed level dodges the expensive boundary
    assert three_near < three_far
    assert three_near < two_level / 10


if __name__ == "__main__":
    print(render_table(reproduce_equivalence(),
                       title="2-level hierarchy == red-blue base game"))
    print()
    print(render_table(reproduce_depth_sweep(),
                       title="depth sweep on grid(4x4): an interposed cache "
                             "absorbs the traffic"))
