"""Property-based tests (hypothesis) for the core invariants.

These complement the unit tests with randomized structural guarantees:
legality of every heuristic schedule on arbitrary DAGs, state-transition
invariants under arbitrary legal move sequences, solver orderings, and
serialization round-trips.
"""

import random as _random
from fractions import Fraction

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro import (
    ComputationDAG,
    PebblingInstance,
    PebblingSimulator,
    PebblingState,
    validate_schedule,
)
from repro.generators import UndirectedGraph
from repro.heuristics import fixed_order_schedule, greedy_pebble, topological_schedule
from repro.solvers import (
    brute_force_min_order,
    held_karp_min_order,
    solve_optimal,
    trivial_lower_bound,
    upper_bound_naive,
)

from .legacy_reference import apply_move, legal_moves

COMMON = settings(
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)


# --------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------- #

@st.composite
def small_dags(draw, max_nodes=8, max_indegree=2):
    """Random DAG on 1..max_nodes integer nodes with edges i -> j, i < j."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    edges = []
    for j in range(1, n):
        parents = draw(
            st.lists(
                st.integers(min_value=0, max_value=j - 1),
                unique=True,
                max_size=min(j, max_indegree),
            )
        )
        edges.extend((p, j) for p in parents)
    return ComputationDAG(edges=edges, nodes=range(n))


@st.composite
def small_graphs(draw, max_nodes=7):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return UndirectedGraph.from_edges(n, chosen)


MODELS = st.sampled_from(["base", "oneshot", "nodel", "compcost"])


# --------------------------------------------------------------------- #
# heuristics produce legal, complete, bounded schedules
# --------------------------------------------------------------------- #

class TestHeuristicLegality:
    @COMMON
    @given(dag=small_dags(), model=MODELS, extra=st.integers(0, 2))
    def test_fixed_order_schedule_always_valid(self, dag, model, extra):
        inst = PebblingInstance(
            dag=dag, model=model, red_limit=dag.min_red_pebbles + extra
        )
        report = validate_schedule(inst, fixed_order_schedule(inst))
        assert report.ok, report.violations[:3]

    @COMMON
    @given(dag=small_dags(), model=MODELS)
    def test_greedy_always_valid_and_bounded(self, dag, model):
        inst = PebblingInstance(dag=dag, model=model, red_limit=dag.min_red_pebbles)
        result = greedy_pebble(inst)
        report = validate_schedule(inst, result.schedule)
        assert report.ok, report.violations[:3]
        assert trivial_lower_bound(dag, model, inst.red_limit) <= result.cost
        assert result.cost <= upper_bound_naive(dag, model)

    @COMMON
    @given(dag=small_dags(), model=MODELS)
    def test_baseline_always_valid_and_within_bound(self, dag, model):
        inst = PebblingInstance(dag=dag, model=model, red_limit=dag.min_red_pebbles)
        report = validate_schedule(inst, topological_schedule(inst))
        assert report.ok
        assert report.cost <= upper_bound_naive(dag, model)


# --------------------------------------------------------------------- #
# state invariants under arbitrary legal play
# --------------------------------------------------------------------- #

class TestStateInvariants:
    @COMMON
    @given(dag=small_dags(max_nodes=6), model=MODELS, seed=st.integers(0, 10_000),
           steps=st.integers(0, 40))
    def test_random_legal_walk_preserves_invariants(self, dag, model, seed, steps):
        inst = PebblingInstance(dag=dag, model=model, red_limit=dag.min_red_pebbles)
        rng = _random.Random(seed)
        state = PebblingState.initial()
        computed_history = set()
        for _ in range(steps):
            moves = sorted(
                legal_moves(state, dag, inst.costs, inst.red_limit),
            )
            if not moves:
                break
            move = moves[rng.randrange(len(moves))]
            state, cost = apply_move(state, move, dag, inst.costs, inst.red_limit)
            assert cost >= 0
            state.check_invariants()
            assert len(state.red) <= inst.red_limit
            # computed never shrinks
            assert computed_history <= state.computed
            computed_history = set(state.computed)


# --------------------------------------------------------------------- #
# solver orderings
# --------------------------------------------------------------------- #

class TestSolverProperties:
    @COMMON
    @given(dag=small_dags(max_nodes=6))
    def test_optimum_below_every_heuristic(self, dag):
        inst = PebblingInstance(
            dag=dag, model="oneshot", red_limit=dag.min_red_pebbles
        )
        opt = solve_optimal(inst, return_schedule=False).cost
        assert opt <= greedy_pebble(inst).cost
        sim = PebblingSimulator(inst)
        assert opt <= sim.run(fixed_order_schedule(inst)).cost

    @COMMON
    @given(dag=small_dags(max_nodes=6))
    def test_optimum_monotone_in_r(self, dag):
        inst = PebblingInstance(
            dag=dag, model="oneshot", red_limit=dag.min_red_pebbles
        )
        c1 = solve_optimal(inst, return_schedule=False).cost
        c2 = solve_optimal(
            inst.with_red_limit(inst.red_limit + 1), return_schedule=False
        ).cost
        assert c2 <= c1
        # Section 5 law: one extra pebble saves at most 2n
        assert c1 <= c2 + 2 * dag.n_nodes

    @COMMON
    @given(dag=small_dags(max_nodes=6), model=MODELS)
    def test_lemma1_optimal_length(self, dag, model):
        """Lemma 1: optimal pebblings have O(Delta * n) moves in the
        oneshot/nodel/compcost models."""
        assume(model != "base")
        inst = PebblingInstance(dag=dag, model=model, red_limit=dag.min_red_pebbles)
        res = solve_optimal(inst)
        bound = (4 * dag.max_indegree + 4) * dag.n_nodes + 4
        assert res.length <= bound

    @COMMON
    @given(
        n=st.integers(2, 6),
        seed=st.integers(0, 10_000),
    )
    def test_held_karp_equals_brute_force(self, n, seed):
        rng = _random.Random(seed)
        start = [Fraction(rng.randrange(8)) for _ in range(n)]
        trans = [[Fraction(rng.randrange(8)) for _ in range(n)] for _ in range(n)]
        assert (
            held_karp_min_order(start, trans)[0]
            == brute_force_min_order(start, trans)[0]
        )


# --------------------------------------------------------------------- #
# serialization round-trips
# --------------------------------------------------------------------- #

class TestSerializationProperties:
    @COMMON
    @given(dag=small_dags())
    def test_dag_round_trip(self, dag):
        from repro.io import dag_from_json, dag_to_json

        back = dag_from_json(dag_to_json(dag))
        assert set(back.nodes) == set(dag.nodes)
        assert set(back.edges()) == set(dag.edges())
        assert back.topological_order() == dag.topological_order()

    @COMMON
    @given(dag=small_dags(max_nodes=6))
    def test_optimal_schedule_round_trip(self, dag):
        from repro.io import schedule_from_json, schedule_to_json

        inst = PebblingInstance(
            dag=dag, model="oneshot", red_limit=dag.min_red_pebbles
        )
        sched = solve_optimal(inst).schedule
        back = schedule_from_json(schedule_to_json(sched))
        assert back == sched
        # replaying the deserialized schedule gives the same cost
        assert PebblingSimulator(inst).run(back).cost == PebblingSimulator(
            inst
        ).run(sched).cost


# --------------------------------------------------------------------- #
# NP substrate properties
# --------------------------------------------------------------------- #

class TestNpcProperties:
    @COMMON
    @given(g=small_graphs())
    def test_vc_exact_and_approx_relation(self, g):
        from repro.npc import is_vertex_cover, min_vertex_cover, vertex_cover_2approx

        vc = min_vertex_cover(g)
        approx = vertex_cover_2approx(g)
        assert is_vertex_cover(g, set(vc))
        assert is_vertex_cover(g, set(approx))
        assert len(vc) <= len(approx) <= 2 * len(vc)

    @COMMON
    @given(g=small_graphs(max_nodes=6))
    def test_hampath_reduction_decides_correctly(self, g):
        from repro.npc import has_hamiltonian_path
        from repro.reductions import hampath_reduction

        assume(g.n >= 3)
        red = hampath_reduction(g, "oneshot")
        assert red.decide_hamiltonian_path() == has_hamiltonian_path(g)

    @COMMON
    @given(g=small_graphs())
    def test_complement_involution(self, g):
        assert g.complement().complement().edges == g.edges
