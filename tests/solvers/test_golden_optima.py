"""Golden regression tests: pinned exact optima for classic instances.

The numbers below were produced by the frozenset reference search (the
pre-bitmask implementation, now ``tests/legacy_reference.py``) and
hand-checked against the paper's formulas where one exists (pyramids,
the Figure 3/4 tradeoff gadget, H2C).  Every entry is asserted against

* the bitmask kernel (``solve_optimal``, the default engine),
* the frozenset reference (``solve_optimal_legacy``), and
* the batched numpy frontier engine (``engine="numpy"``),

and both solver engines run once under the default bound and once as
uniform-cost search (``heuristic=None``),

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
from repro.solvers import solve_optimal
from repro.solvers.bounds import (
    exhaustive_cost_bounds,
    trivial_lower_bound,
    upper_bound_naive,
)

from ..legacy_reference import solve_optimal_legacy


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
#: (totals: 22,706 expanded, 32,344 generated).  Any change in successor
#: order, tie-breaking or pruning moves these counts, so update them only
#: with a reason for the change.
BITS_WORK = {
    ("pyramid:2", "base", 3): (145, 171),
    ("pyramid:2", "oneshot", 3): (105, 151),
    ("pyramid:2", "nodel", 3): (59, 64),
    ("pyramid:2", "compcost", 3): (145, 171),
    ("pyramid:2", "base", 4): (17, 47),
    ("pyramid:2", "oneshot", 4): (16, 42),
    ("pyramid:2", "nodel", 4): (35, 38),
    ("pyramid:2", "compcost", 4): (17, 47),
    ("pyramid:2", "base", 5): (13, 20),
    ("pyramid:2", "oneshot", 5): (13, 20),
    ("pyramid:2", "nodel", 5): (18, 20),
    ("pyramid:2", "compcost", 5): (13, 20),
    ("pyramid:3", "oneshot", 3): (6000, 8651),
    ("pyramid:3", "oneshot", 4): (2217, 4362),
    ("pyramid:3", "nodel", 4): (973, 1224),
    ("tree:4", "oneshot", 3): (421, 567),
    ("tree:4", "oneshot", 4): (38, 125),
    ("chain:8", "nodel", 2): (53, 82),
    ("chain:8", "nodel", 3): (83, 150),
    ("chain:8", "oneshot", 2): (8, 20),
    ("grid:3x3", "oneshot", 3): (2033, 3068),
    ("h2c:4", "base", 4): (1393, 1499),
    ("h2c:4", "oneshot", 4): (1088, 1374),
    ("h2c:4", "nodel", 4): (233, 276),
    ("h2c:4", "compcost", 4): (1393, 1499),
    ("h2c:4", "oneshot", 5): (249, 411),
    ("tradeoff:2x6", "oneshot", 4): (4650, 6066),
    ("tradeoff:2x6", "oneshot", 5): (1248, 2067),
    ("tradeoff:2x6", "oneshot", 6): (30, 92),
}

#: (expanded, generated) of the default ``bits`` search (A* under the
#: cost model's bound, equal-f ties to the larger g) on each GOLDEN cell
#: (totals: 6,201 expanded, 8,618 generated).  Base and nodel have no
#: bound, so their cells equal ``BITS_WORK``.  Pinned like ``BITS_WORK``.
AUTO_WORK = {
    ("pyramid:2", "base", 3): (145, 171),
    ("pyramid:2", "oneshot", 3): (38, 60),
    ("pyramid:2", "nodel", 3): (59, 64),
    ("pyramid:2", "compcost", 3): (102, 160),
    ("pyramid:2", "base", 4): (17, 47),
    ("pyramid:2", "oneshot", 4): (14, 32),
    ("pyramid:2", "nodel", 4): (35, 38),
    ("pyramid:2", "compcost", 4): (6, 24),
    ("pyramid:2", "base", 5): (13, 20),
    ("pyramid:2", "oneshot", 5): (13, 20),
    ("pyramid:2", "nodel", 5): (18, 20),
    ("pyramid:2", "compcost", 5): (6, 18),
    ("pyramid:3", "oneshot", 3): (538, 946),
    ("pyramid:3", "oneshot", 4): (186, 458),
    ("pyramid:3", "nodel", 4): (973, 1224),
    ("tree:4", "oneshot", 3): (120, 186),
    ("tree:4", "oneshot", 4): (28, 75),
    ("chain:8", "nodel", 2): (53, 82),
    ("chain:8", "nodel", 3): (83, 150),
    ("chain:8", "oneshot", 2): (8, 20),
    ("grid:3x3", "oneshot", 3): (224, 447),
    ("h2c:4", "base", 4): (1393, 1499),
    ("h2c:4", "oneshot", 4): (101, 172),
    ("h2c:4", "nodel", 4): (233, 276),
    ("h2c:4", "compcost", 4): (1179, 1437),
    ("h2c:4", "oneshot", 5): (58, 118),
    ("tradeoff:2x6", "oneshot", 4): (391, 528),
    ("tradeoff:2x6", "oneshot", 5): (143, 276),
    ("tradeoff:2x6", "oneshot", 6): (24, 50),
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

    def test_uniform_cost_numpy_engine_matches_golden(
        self, dags, dag_name, model, red_limit, expected
    ):
        """The numpy frontier loop with its bound twin switched off, so a
        wrong optimum points at the loop, not at the bound."""
        inst = PebblingInstance(
            dag=dags[dag_name], model=model, red_limit=red_limit
        )
        result = solve_optimal(inst, engine="numpy", heuristic=None)
        assert result.cost == Fraction(expected)
        assert result.heuristic == "none"
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
