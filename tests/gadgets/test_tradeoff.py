"""Tests for the Section 5 tradeoff construction (Figures 3-4)."""

from fractions import Fraction

import pytest

from repro import PebblingInstance, PebblingSimulator, validate_schedule
from repro.gadgets import (
    opt_tradeoff_formula,
    optimal_tradeoff_schedule,
    tradeoff_dag,
)
from repro.solvers import solve_optimal


class TestConstruction:
    def test_counts(self):
        td = tradeoff_dag(3, 10)
        assert td.dag.n_nodes == 2 * 3 + 10
        assert td.d == 3 and td.chain_length == 10

    def test_max_indegree_is_d_plus_one(self):
        td = tradeoff_dag(4, 6)
        assert td.dag.max_indegree == 5
        assert td.min_red == 6

    def test_chain_alternates_groups(self):
        td = tradeoff_dag(2, 4)
        dag = td.dag
        assert set(td.group_a) <= set(dag.predecessors(("c", 1)))
        assert set(td.group_b) <= set(dag.predecessors(("c", 2)))
        assert set(td.group_a) <= set(dag.predecessors(("c", 3)))

    def test_chain_is_linked(self):
        td = tradeoff_dag(2, 4)
        for j in range(2, 5):
            assert ("c", j - 1) in td.dag.predecessors(("c", j))

    def test_sink_is_chain_end(self):
        td = tradeoff_dag(2, 5)
        assert td.dag.sinks == {("c", 5)}

    def test_group_for_step(self):
        td = tradeoff_dag(2, 4)
        assert td.group_for_step(1) == td.group_a
        assert td.group_for_step(2) == td.group_b

    def test_h2c_variant_guards_control_groups(self):
        td = tradeoff_dag(2, 4, with_h2c=True)
        assert td.h2c is not None
        # control nodes are no longer sources
        for g in td.group_a + td.group_b:
            assert td.dag.predecessors(g)
        # d+3 starters per control node (Appendix A.1)
        assert len(td.h2c.starters[td.group_a[0]]) == 2 + 3

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            tradeoff_dag(0, 5)


class TestSchedules:
    @pytest.mark.parametrize("model", ["oneshot", "base", "nodel", "compcost"])
    @pytest.mark.parametrize("i", [0, 1, 2, 3])
    def test_schedule_is_valid_and_within_capacity(self, model, i):
        td = tradeoff_dag(3, 12)
        R = 3 + 2 + i
        sched = optimal_tradeoff_schedule(td, R, model)
        inst = PebblingInstance(dag=td.dag, model=model, red_limit=R)
        report = validate_schedule(inst, sched)
        assert report.ok, report.violations[:3]
        res = PebblingSimulator(inst).run(sched, require_complete=True)
        assert res.max_red_in_use <= R

    @pytest.mark.parametrize("i", [0, 1, 2, 3, 4])
    def test_oneshot_cost_matches_formula_up_to_boundary(self, i):
        d, n = 4, 25
        td = tradeoff_dag(d, n)
        R = d + 2 + i
        sched = optimal_tradeoff_schedule(td, R, "oneshot")
        inst = PebblingInstance(dag=td.dag, model="oneshot", red_limit=R)
        measured = PebblingSimulator(inst).run(sched, require_complete=True).cost
        formula = opt_tradeoff_formula(td, R, "oneshot")  # 2(d-i)n
        assert abs(measured - formula) <= 5 * d + 5
        assert measured <= formula

    def test_base_is_degenerate_zero(self):
        td = tradeoff_dag(3, 15)
        sched = optimal_tradeoff_schedule(td, 5, "base")
        inst = PebblingInstance(dag=td.dag, model="base", red_limit=5)
        assert PebblingSimulator(inst).run(sched, require_complete=True).cost == 0

    def test_oneshot_linear_decrease_with_r(self):
        """Figure 4: the optimum drops by ~2n per extra red pebble."""
        d, n = 4, 20
        td = tradeoff_dag(d, n)
        costs = []
        for i in range(d + 1):
            R = d + 2 + i
            inst = PebblingInstance(dag=td.dag, model="oneshot", red_limit=R)
            sched = optimal_tradeoff_schedule(td, R, "oneshot")
            costs.append(PebblingSimulator(inst).run(sched).cost)
        drops = [costs[k] - costs[k + 1] for k in range(d)]
        assert costs[-1] == 0
        for drop in drops:
            assert 2 * n - 10 <= drop <= 2 * n

    def test_exact_solver_confirms_schedule_optimality_small(self):
        """On a tiny instance the emitted schedule must match the exact
        optimum, confirming the strategy is optimal (not just feasible)."""
        d, n = 2, 4
        td = tradeoff_dag(d, n)
        for i in range(d + 1):
            R = d + 2 + i
            inst = PebblingInstance(dag=td.dag, model="oneshot", red_limit=R)
            opt = solve_optimal(inst, return_schedule=False)
            sched_cost = PebblingSimulator(inst).run(
                optimal_tradeoff_schedule(td, R, "oneshot"), require_complete=True
            ).cost
            assert opt.cost == sched_cost

    def test_nodel_offset(self):
        """nodel pays an extra store per chain node (the +n offset of
        Appendix A.1, on the plain DAG with recomputable sources)."""
        d, n = 3, 12
        td = tradeoff_dag(d, n)
        R = d + 2
        one = PebblingSimulator(
            PebblingInstance(dag=td.dag, model="nodel", red_limit=R)
        ).run(optimal_tradeoff_schedule(td, R, "nodel"), require_complete=True)
        formula = opt_tradeoff_formula(td, R, "nodel")
        assert abs(one.cost - formula) <= 2 * d + 2

    def test_compcost_pays_epsilon_per_compute(self):
        d, n = 2, 8
        td = tradeoff_dag(d, n)
        R = d + 2
        inst = PebblingInstance(dag=td.dag, model="compcost", red_limit=R)
        res = PebblingSimulator(inst).run(
            optimal_tradeoff_schedule(td, R, "compcost"), require_complete=True
        )
        assert res.transfer_cost == 0  # pure recomputation strategy
        assert res.cost == Fraction(1, 100) * res.breakdown.computes

    def test_formula_rejects_infeasible_r(self):
        td = tradeoff_dag(3, 5)
        with pytest.raises(ValueError):
            opt_tradeoff_formula(td, 4, "oneshot")

    def test_schedule_rejects_h2c_variant(self):
        td = tradeoff_dag(2, 4, with_h2c=True)
        with pytest.raises(ValueError):
            optimal_tradeoff_schedule(td, 4, "oneshot")
