"""Golden regression tests: pinned exact optima for classic instances.

The numbers below were produced by the legacy frozenset solver (the
pre-bitmask reference implementation) and hand-checked against the
paper's formulas where one exists (pyramids, the Figure 3/4 tradeoff
gadget, H2C).  Every entry is asserted against

* the bitmask kernel (``solve_optimal``, the default engine),
* the legacy reference (``solve_optimal_legacy``),
* iterative-deepening A* (``solve_optimal_idastar``), and
* the batched numpy frontier engine (``engine="numpy"``),

so any kernel bug — cost scaling, successor generation, the search
loop, the admissible bound — shows up as a *value diff* against a
committed constant, not just as a cross-check failure that could in
principle be a shared bug.  The ``bits`` engine's exact work
(``expanded``, ``generated``) is pinned too, on the default A* path
(``AUTO_WORK``) and on uniform-cost search (``BITS_WORK``), so a change
in search order or in the bound cannot pass unseen.

The pinned optima also serve as certified reference points for the
non-exact code: every Section 3 bound (the Table 2 range, the
constructive topological baseline, a truncated kernel search) must
bracket them, and no greedy rule may undercut them.

Costs are compared as exact :class:`fractions.Fraction` values parsed
from the pinned strings (byte-identical across engines by construction:
``Fraction.__eq__`` is exact).
"""

from fractions import Fraction

import pytest

from repro import PebblingInstance, validate_schedule
from repro.gadgets import h2c_dag
from repro.gadgets.tradeoff import tradeoff_dag
from repro.generators import (
    binary_tree_dag,
    chain_dag,
    grid_stencil_dag,
    pyramid_dag,
)
from repro.heuristics import GreedyRule, greedy_pebble, topological_schedule
from repro.solvers import (
    solve_optimal,
    solve_optimal_idastar,
    solve_optimal_legacy,
)
from repro.solvers.bounds import (
    exhaustive_cost_bounds,
    trivial_lower_bound,
    upper_bound_naive,
)


def _h2c(r):
    dag, _ = h2c_dag(r)
    return dag


_FACTORIES = {
    "pyramid:2": lambda: pyramid_dag(2),
    "pyramid:3": lambda: pyramid_dag(3),
    "tree:4": lambda: binary_tree_dag(4),
    "chain:8": lambda: chain_dag(8),
    "grid:3x3": lambda: grid_stencil_dag(3, 3),
    "h2c:4": lambda: _h2c(4),
    "tradeoff:2x6": lambda: tradeoff_dag(2, 6).dag,
    "pyramid:4": lambda: pyramid_dag(4),
    "grid:4x4": lambda: grid_stencil_dag(4, 4),
}

#: (dag, model, red_limit, optimal cost) — regenerate with
#: solve_optimal_legacy; do NOT update casually: a changed value means a
#: solver regression until proven otherwise.
GOLDEN = [
    # the [GLT79] pyramid: gentle cost growth as R shrinks (Section 3)
    ("pyramid:2", "base", 3, "2"),
    ("pyramid:2", "oneshot", 3, "2"),
    ("pyramid:2", "nodel", 3, "5"),
    ("pyramid:2", "compcost", 3, "103/50"),
    ("pyramid:2", "base", 4, "0"),
    ("pyramid:2", "oneshot", 4, "0"),
    ("pyramid:2", "nodel", 4, "2"),
    ("pyramid:2", "compcost", 4, "3/50"),
    ("pyramid:2", "base", 5, "0"),
    ("pyramid:2", "oneshot", 5, "0"),
    ("pyramid:2", "nodel", 5, "1"),
    ("pyramid:2", "compcost", 5, "3/50"),
    ("pyramid:3", "oneshot", 3, "6"),
    ("pyramid:3", "oneshot", 4, "2"),
    ("pyramid:3", "nodel", 4, "8"),
    # reduction trees: free once R covers the spine
    ("tree:4", "oneshot", 3, "2"),
    ("tree:4", "oneshot", 4, "0"),
    # chains: nodel must store all but R of the required nodes
    ("chain:8", "nodel", 2, "6"),
    ("chain:8", "nodel", 3, "5"),
    ("chain:8", "oneshot", 2, "0"),
    # wavefront stencil
    ("grid:3x3", "oneshot", 3, "4"),
    # the Hong-Kung-hard H2C gadget of Figure 2: 4 transfers per guarded
    # node at R, halved with one spare slot (Section 3)
    ("h2c:4", "base", 4, "4"),
    ("h2c:4", "oneshot", 4, "4"),
    ("h2c:4", "nodel", 4, "8"),
    ("h2c:4", "compcost", 4, "102/25"),
    ("h2c:4", "oneshot", 5, "2"),
    # Figure 3/4 tradeoff gadget (d=2, n=6): 2(d-i)n exactly
    ("tradeoff:2x6", "oneshot", 4, "16"),
    ("tradeoff:2x6", "oneshot", 5, "8"),
    ("tradeoff:2x6", "oneshot", 6, "0"),
]

#: (expanded, generated) of the uniform-cost ``bits`` search
#: (``heuristic=None``) on each GOLDEN cell, recorded from ``astar_bits``
#: with dominance pruning switched off just before that pruning was
#: deleted (totals: 37,242 expanded, 53,623 generated).  Any change in
#: successor order, tie-breaking or pruning moves these counts, so update
#: them only with a reason for the change.
BITS_WORK = {
    ("pyramid:2", "base", 3): (211, 283),
    ("pyramid:2", "oneshot", 3): (156, 235),
    ("pyramid:2", "nodel", 3): (99, 104),
    ("pyramid:2", "compcost", 3): (211, 283),
    ("pyramid:2", "base", 4): (17, 65),
    ("pyramid:2", "oneshot", 4): (16, 60),
    ("pyramid:2", "nodel", 4): (77, 101),
    ("pyramid:2", "compcost", 4): (17, 65),
    ("pyramid:2", "base", 5): (13, 46),
    ("pyramid:2", "oneshot", 5): (13, 46),
    ("pyramid:2", "nodel", 5): (44, 80),
    ("pyramid:2", "compcost", 5): (13, 46),
    ("pyramid:3", "oneshot", 3): (8263, 11770),
    ("pyramid:3", "oneshot", 4): (3025, 6739),
    ("pyramid:3", "nodel", 4): (1513, 1769),
    ("tree:4", "oneshot", 3): (587, 859),
    ("tree:4", "oneshot", 4): (38, 159),
    ("chain:8", "nodel", 2): (59, 89),
    ("chain:8", "nodel", 3): (108, 183),
    ("chain:8", "oneshot", 2): (8, 21),
    ("grid:3x3", "oneshot", 3): (2706, 4217),
    ("h2c:4", "base", 4): (2904, 3352),
    ("h2c:4", "oneshot", 4): (1898, 2758),
    ("h2c:4", "nodel", 4): (418, 461),
    ("h2c:4", "compcost", 4): (2904, 3352),
    ("h2c:4", "oneshot", 5): (467, 949),
    ("tradeoff:2x6", "oneshot", 4): (8519, 10708),
    ("tradeoff:2x6", "oneshot", 5): (2908, 4683),
    ("tradeoff:2x6", "oneshot", 6): (30, 140),
}

#: (expanded, generated) of the default ``bits`` search (A* under the
#: cost model's bound, equal-f ties to the larger g) on each GOLDEN cell
#: (totals: 10,271 expanded, 14,796 generated).  Base and nodel have no
#: bound, so their cells equal ``BITS_WORK``.  Pinned like ``BITS_WORK``.
AUTO_WORK = {
    ("pyramid:2", "base", 3): (211, 283),
    ("pyramid:2", "oneshot", 3): (47, 87),
    ("pyramid:2", "nodel", 3): (99, 104),
    ("pyramid:2", "compcost", 3): (117, 228),
    ("pyramid:2", "base", 4): (17, 65),
    ("pyramid:2", "oneshot", 4): (14, 50),
    ("pyramid:2", "nodel", 4): (77, 101),
    ("pyramid:2", "compcost", 4): (6, 30),
    ("pyramid:2", "base", 5): (13, 46),
    ("pyramid:2", "oneshot", 5): (13, 46),
    ("pyramid:2", "nodel", 5): (44, 80),
    ("pyramid:2", "compcost", 5): (6, 28),
    ("pyramid:3", "oneshot", 3): (611, 1199),
    ("pyramid:3", "oneshot", 4): (223, 642),
    ("pyramid:3", "nodel", 4): (1513, 1769),
    ("tree:4", "oneshot", 3): (138, 266),
    ("tree:4", "oneshot", 4): (28, 109),
    ("chain:8", "nodel", 2): (59, 89),
    ("chain:8", "nodel", 3): (108, 183),
    ("chain:8", "oneshot", 2): (8, 21),
    ("grid:3x3", "oneshot", 3): (231, 558),
    ("h2c:4", "base", 4): (2904, 3352),
    ("h2c:4", "oneshot", 4): (153, 288),
    ("h2c:4", "nodel", 4): (418, 461),
    ("h2c:4", "compcost", 4): (2190, 2993),
    ("h2c:4", "oneshot", 5): (78, 216),
    ("tradeoff:2x6", "oneshot", 4): (614, 840),
    ("tradeoff:2x6", "oneshot", 5): (307, 564),
    ("tradeoff:2x6", "oneshot", 6): (24, 98),
}

#: larger pinned optima, solved by the batched numpy engine (the scalar
#: engines need seconds each on the nodel cells, which have no bound;
#: values were cross-checked against ``engine="bits"`` offline).
GOLDEN_LARGE = [
    ("pyramid:4", "oneshot", 4, "4"),
    ("pyramid:4", "nodel", 5, "12"),
    ("grid:4x4", "oneshot", 4, "4"),
    ("grid:4x4", "nodel", 4, "16"),
    # pinned for test_beam_search.py's wide-beam optimum check
    ("grid:4x4", "oneshot", 3, "12"),
]

_IDS = [f"{d}-{m}-R{r}" for d, m, r, _ in GOLDEN]
_LARGE_IDS = [f"{d}-{m}-R{r}" for d, m, r, _ in GOLDEN_LARGE]


@pytest.fixture(scope="module")
def dags():
    return {name: factory() for name, factory in _FACTORIES.items()}


@pytest.mark.parametrize("dag_name,model,red_limit,expected", GOLDEN, ids=_IDS)
class TestGoldenOptima:
    def test_bitmask_engine_matches_golden(
        self, dags, dag_name, model, red_limit, expected
    ):
        inst = PebblingInstance(
            dag=dags[dag_name], model=model, red_limit=red_limit
        )
        result = solve_optimal(inst)
        assert result.cost == Fraction(expected)
        assert (result.expanded, result.generated) == AUTO_WORK[
            (dag_name, model, red_limit)
        ]
        # the reconstructed schedule must be independently auditable
        report = validate_schedule(inst, result.schedule)
        assert report.ok, report.violations[:3]
        assert report.cost == result.cost

    def test_uniform_cost_bitmask_engine_matches_golden(
        self, dags, dag_name, model, red_limit, expected
    ):
        inst = PebblingInstance(
            dag=dags[dag_name], model=model, red_limit=red_limit
        )
        result = solve_optimal(inst, heuristic=None)
        assert result.cost == Fraction(expected)
        assert (result.expanded, result.generated) == BITS_WORK[
            (dag_name, model, red_limit)
        ]
        report = validate_schedule(inst, result.schedule)
        assert report.ok, report.violations[:3]
        assert report.cost == result.cost

    def test_legacy_engine_matches_golden(
        self, dags, dag_name, model, red_limit, expected
    ):
        inst = PebblingInstance(
            dag=dags[dag_name], model=model, red_limit=red_limit
        )
        cost = solve_optimal_legacy(inst, return_schedule=False).cost
        assert cost == Fraction(expected)

    def test_idastar_matches_golden(
        self, dags, dag_name, model, red_limit, expected
    ):
        inst = PebblingInstance(
            dag=dags[dag_name], model=model, red_limit=red_limit
        )
        cost = solve_optimal_idastar(
            inst, return_schedule=False, budget=20_000_000
        ).cost
        assert cost == Fraction(expected)

    def test_numpy_engine_matches_golden(
        self, dags, dag_name, model, red_limit, expected
    ):
        inst = PebblingInstance(
            dag=dags[dag_name], model=model, red_limit=red_limit
        )
        result = solve_optimal(inst, engine="numpy")
        assert result.cost == Fraction(expected)
        report = validate_schedule(inst, result.schedule)
        assert report.ok, report.violations[:3]
        assert report.cost == result.cost

    def test_section3_bounds_bracket_golden(
        self, dags, dag_name, model, red_limit, expected
    ):
        dag = dags[dag_name]
        inst = PebblingInstance(dag=dag, model=model, red_limit=red_limit)
        optimum = Fraction(expected)
        eps = inst.epsilon
        assert trivial_lower_bound(dag, model, red_limit, epsilon=eps) <= optimum
        # the baseline realises the (2*Delta+1)*n upper end constructively
        baseline = validate_schedule(inst, topological_schedule(inst))
        assert baseline.ok, baseline.violations[:3]
        assert optimum <= baseline.cost <= upper_bound_naive(dag, model, epsilon=eps)
        # a search cut off after a few expansions still brackets the optimum
        lower, upper = exhaustive_cost_bounds(inst, node_budget=10)
        assert lower <= optimum <= upper

    def test_greedy_rules_never_beat_golden(
        self, dags, dag_name, model, red_limit, expected
    ):
        """A heuristic schedule below a certified optimum means its cost
        accounting is wrong, not that it found something better."""
        inst = PebblingInstance(
            dag=dags[dag_name], model=model, red_limit=red_limit
        )
        for rule in GreedyRule:
            result = greedy_pebble(inst, rule)
            report = validate_schedule(inst, result.schedule)
            assert report.ok, (rule, report.violations[:3])
            assert report.cost == result.cost, rule
            assert result.cost >= Fraction(expected), rule


@pytest.mark.parametrize(
    "dag_name,model,red_limit,expected", GOLDEN_LARGE, ids=_LARGE_IDS
)
def test_numpy_engine_matches_large_golden(
    dags, dag_name, model, red_limit, expected
):
    """The frontier-batching payoff: instances out of scalar tier-1 reach."""
    inst = PebblingInstance(
        dag=dags[dag_name], model=model, red_limit=red_limit
    )
    result = solve_optimal(inst, engine="numpy", budget=4_000_000)
    assert result.cost == Fraction(expected)
    report = validate_schedule(inst, result.schedule)
    assert report.ok, report.violations[:3]
    assert report.cost == result.cost
