"""Tests for the exact state-space solver — the library's ground truth."""

from fractions import Fraction

import pytest

from repro import (
    BudgetExceededError,
    ComputationDAG,
    PebblingInstance,
    PebblingState,
    validate_schedule,
)
from repro.generators import chain_dag, independent_tasks_dag, pyramid_dag
from repro.solvers import decide_pebbling, solve_optimal
from repro.solvers.kernel import Expander, compile_bound

from ..legacy_reference import apply_move, legal_moves


def opt(dag, model, R, **kw):
    return solve_optimal(PebblingInstance(dag=dag, model=model, red_limit=R), **kw)


class TestHandSolvedInstances:
    def test_chain_is_free_with_two_pebbles(self):
        assert opt(chain_dag(6), "oneshot", 2).cost == 0

    def test_chain_nodel_must_store_everything_but_r(self):
        # nodel: every pebble placed stays; chain of 5 with R=2 must turn
        # nodes blue as it advances: n - R stores.
        res = opt(chain_dag(5), "nodel", 2)
        assert res.cost == 3

    def test_diamond_free_with_three(self):
        dag = ComputationDAG([("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
        assert opt(dag, "oneshot", 3).cost == 0

    def test_diamond_with_two_pebbles_infeasible(self):
        from repro import InfeasibleInstanceError

        with pytest.raises(InfeasibleInstanceError):
            PebblingInstance(
                dag=ComputationDAG([("a", "c"), ("b", "c")]),
                model="oneshot",
                red_limit=2,
            )

    def test_two_wide_tasks_pay_one_store_for_the_first_sink(self):
        # Two tasks, each needing 3 private inputs, R=4.  The inputs of the
        # first task are deletable after use (free), but the first task
        # itself is a sink and must keep a pebble: computing the second
        # task forces exactly one store.  With R=5 the spare slot removes it.
        dag = independent_tasks_dag(2, 3)
        assert opt(dag, "oneshot", 4).cost == 1
        assert opt(dag, "oneshot", 5).cost == 0

    def test_oneshot_forced_spill(self):
        # x feeds both sinks y and z; y needs (x, p, q); z needs (x, r, s).
        # R = 4: after computing y, the sink y occupies a slot while z's
        # computation needs x + r + s + z = 4 slots, forcing one store.
        dag = ComputationDAG(
            [("x", "y"), ("p", "y"), ("q", "y"), ("x", "z"), ("r", "z"), ("s", "z")]
        )
        assert opt(dag, "oneshot", 4).cost == 1
        # one more slot and the spill disappears
        assert opt(dag, "oneshot", 5).cost == 0
        # three sink-consumers of x: each earlier sink must be spilled
        dag2 = ComputationDAG(
            [
                ("x", "y"), ("p", "y"), ("q", "y"),
                ("x", "z"), ("r", "z"), ("s", "z"),
                ("x", "w"), ("t", "w"), ("u", "w"),
            ]
        )
        res = opt(dag2, "oneshot", 4)
        assert res.cost == 2  # two of the three sinks must be stored blue

    def test_compcost_charges_each_compute(self):
        res = opt(chain_dag(4), "compcost", 2)
        assert res.cost == Fraction(4, 100)

    def test_base_recomputation_beats_storing(self):
        # v is needed twice with a tight budget: base recomputes sources
        # for free where oneshot must pay transfers.
        dag = ComputationDAG(
            [("a", "t1"), ("b", "t1"), ("a", "t2"), ("c", "t2")]
        )
        base = opt(dag, "base", 3).cost
        oneshot = opt(dag, "oneshot", 3).cost
        assert base <= oneshot

    def test_compcost_epsilon_crossover(self):
        """compcost's recompute/reorder crossover.  u ends a 4-compute
        chain and feeds s1 and z2; z1's four inputs exclude u, so at R = 5
        computing z1 flushes u.  Twelve computes are mandatory, and u's
        second use costs the cheaper of recomputing the chain (4*eps) and
        computing z2 before z1, which pays one store for the z2 sink (1).
        Spilling u (store + load = 2) is never optimal.  The paper's
        eps = 1/100 sits deep in the recompute regime."""
        dag = ComputationDAG(
            [
                ("c0", "c1"), ("c1", "c2"), ("c2", "u"), ("u", "s1"),
                ("p1", "z1"), ("q1", "z1"), ("r1", "z1"), ("s1", "z1"),
                ("u", "z2"), ("p2", "z2"), ("q2", "z2"),
            ]
        )
        epsilons = [Fraction(1, 100), Fraction(1, 10), Fraction(1, 5), Fraction(2, 5),
                    Fraction(3, 5), Fraction(3, 4), Fraction(99, 100)]
        # the sweep crosses eps = 1/4, so both policies are optimal somewhere
        assert {4 * eps < 1 for eps in epsilons} == {True, False}
        costs = []
        for eps in epsilons:
            inst = PebblingInstance(dag=dag, model="compcost", red_limit=5, epsilon=eps)
            cost = solve_optimal(inst, engine="numpy", return_schedule=False).cost
            assert cost == 12 * eps + min(4 * eps, Fraction(1)), eps
            assert cost < 12 * eps + 2, eps
            costs.append(cost)
        assert costs == sorted(costs)

    def test_empty_dag(self):
        res = opt(ComputationDAG(), "oneshot", 1)
        assert res.cost == 0 and len(res.schedule) == 0


class TestSolverContracts:
    def test_schedule_is_valid_and_priced_correctly(self):
        dag = pyramid_dag(2)
        inst = PebblingInstance(dag=dag, model="oneshot", red_limit=3)
        res = solve_optimal(inst)
        report = validate_schedule(inst, res.schedule)
        assert report.ok
        assert report.cost == res.cost

    def test_return_schedule_false_skips_reconstruction(self):
        res = opt(chain_dag(4), "oneshot", 2, return_schedule=False)
        assert res.schedule is None and res.length is None

    def test_budget_exhaustion_raises(self):
        with pytest.raises(BudgetExceededError):
            opt(pyramid_dag(3), "oneshot", 4, budget=10)

    def test_monotone_in_r(self):
        """More red pebbles never hurt: opt(R+1) <= opt(R)."""
        dag = pyramid_dag(2)
        costs = [opt(dag, "oneshot", R, return_schedule=False).cost for R in (3, 4, 5)]
        assert costs == sorted(costs, reverse=True)

    def test_r_decrement_bounded_by_2n(self):
        """Section 5: opt(R-1) <= opt(R) + 2n."""
        dag = pyramid_dag(2)
        n = dag.n_nodes
        cost = {R: opt(dag, "oneshot", R, return_schedule=False).cost for R in (3, 4, 5)}
        for R in (3, 4):
            assert cost[R] <= cost[R + 1] + 2 * n, R

    @pytest.mark.parametrize("model", ["base", "oneshot", "nodel", "compcost"])
    def test_model_cost_orderings(self, model):
        """base <= compcost <= ... : base can mimic any other model's
        schedule modulo free deletes/computes, so its optimum is lowest."""
        dag = pyramid_dag(2)
        base_cost = opt(dag, "base", 3, return_schedule=False).cost
        other = opt(dag, model, 3, return_schedule=False).cost
        assert base_cost <= other

    def test_prune_delete_blue_cost_preserving(self):
        """The solver's 'never delete blue' prune must not change optima:
        compare against a literal-rules search via the unpruned move set."""
        import heapq
        import itertools

        dag = ComputationDAG([("a", "c"), ("b", "c")])
        inst = PebblingInstance(dag=dag, model="base", red_limit=3)
        # unpruned uniform-cost search
        start = PebblingState.initial()
        counter = itertools.count()
        frontier = [(Fraction(0), next(counter), start)]
        best = {start: Fraction(0)}
        answer = None
        while frontier:
            g, _, s = heapq.heappop(frontier)
            if g > best.get(s, g):
                continue
            if s.is_complete(dag):
                answer = g
                break
            for mv in legal_moves(s, dag, inst.costs, 3, prune_delete_blue=False):
                ns, c = apply_move(s, mv, dag, inst.costs, 3)
                ng = g + c
                if ns not in best or ng < best[ns]:
                    best[ns] = ng
                    heapq.heappush(frontier, (ng, next(counter), ns))
        assert answer == solve_optimal(inst, return_schedule=False).cost


class TestLemma1Lengths:
    """Lemma 1: optimal pebblings have O(Delta * n) steps in the
    oneshot/nodel/compcost models."""

    @pytest.mark.parametrize("model", ["oneshot", "nodel", "compcost"])
    def test_optimal_length_bounded(self, model):
        dag = pyramid_dag(2)
        res = opt(dag, model, 3)
        delta, n = dag.max_indegree, dag.n_nodes
        # Lemma 1's constant is (2*delta+1) transfers + n computes + n
        # deletes and change; use the explicit safe form.
        assert res.length <= (4 * delta + 4) * n


class TestDecision:
    def test_decision_threshold(self):
        dag = chain_dag(5)
        inst = PebblingInstance(dag=dag, model="nodel", red_limit=2)
        assert decide_pebbling(inst, 3)
        assert not decide_pebbling(inst, 2)

    def test_uses_instance_budget(self):
        dag = chain_dag(5)
        inst = PebblingInstance(dag=dag, model="nodel", red_limit=2, cost_budget=3)
        assert decide_pebbling(inst)

    def test_requires_some_budget(self):
        dag = chain_dag(3)
        inst = PebblingInstance(dag=dag, model="nodel", red_limit=2)
        with pytest.raises(ValueError):
            decide_pebbling(inst)


class TestAStar:
    def test_compcost_heuristic_admissible_and_agreeing(self):
        dag = pyramid_dag(2)
        inst = PebblingInstance(dag=dag, model="compcost", red_limit=3)
        plain = solve_optimal(inst, heuristic=None, return_schedule=False)
        astar = solve_optimal(inst, return_schedule=False)
        assert plain.cost == astar.cost
        assert astar.expanded <= plain.expanded
        assert (plain.heuristic, astar.heuristic) == ("none", "computes")

    @pytest.mark.parametrize(
        "model,name",
        [("base", "none"), ("oneshot", "loads"), ("nodel", "none"),
         ("compcost", "computes")],
    )
    def test_auto_names_the_bound_of_each_model(self, model, name):
        inst = PebblingInstance(dag=pyramid_dag(2), model=model, red_limit=3)
        for engine in ("bits", "numpy"):
            result = solve_optimal(inst, engine=engine, return_schedule=False)
            assert result.heuristic == name, engine

    def test_heuristic_zero_at_goal_states(self):
        dag = chain_dag(3)
        inst = PebblingInstance(dag=dag, model="compcost", red_limit=2)
        ex = Expander(inst)
        h = compile_bound(ex, ("computes",))
        # red {}, blue {2}, computed {0, 1, 2}: the sink holds a pebble
        goal = (0b100 << ex.n) | 0b111
        assert ex.is_goal(goal)
        assert h(goal) == 0

    @pytest.mark.parametrize("heuristic", ["compcost", "none", len])
    def test_unknown_heuristic_raises(self, heuristic):
        inst = PebblingInstance(dag=chain_dag(3), model="compcost", red_limit=2)
        message = r"unknown heuristic.*'auto'.*None"
        for engine in ("bits", "numpy"):
            with pytest.raises(ValueError, match=message):
                solve_optimal(inst, heuristic=heuristic, engine=engine)
