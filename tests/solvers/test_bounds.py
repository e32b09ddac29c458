"""Tests for the Section 3 / Table 2 bounds and the Hong-Kung curves."""

from fractions import Fraction

import pytest

from repro import ComputationDAG, PebblingInstance, PebblingSimulator
from repro.generators import chain_dag, dag_from_spec, matmul_dag, pyramid_dag
from repro.heuristics import topological_schedule
from repro.solvers import (
    compcost_lower_bound,
    exhaustive_cost_bounds,
    feasible,
    fft_io_lower_bound,
    matmul_io_lower_bound,
    nodel_lower_bound,
    required_nodes,
    solve_optimal,
    trivial_lower_bound,
    upper_bound_naive,
)


class TestFeasibility:
    def test_needs_delta_plus_one(self):
        dag = pyramid_dag(3)
        assert not feasible(dag, 2)
        assert feasible(dag, 3)

    def test_edgeless_needs_one(self):
        assert feasible(ComputationDAG(nodes=["x"]), 1)


class TestRequiredNodes:
    def test_all_nodes_required_in_connected_dag(self):
        dag = pyramid_dag(2)
        assert required_nodes(dag) == frozenset(dag.nodes)

    def test_dangling_nodes_not_required(self):
        # d is a dead-end node with no path to the (only) sink... a node
        # with no successors IS a sink by definition, so build a DAG where
        # a whole branch feeds a separate sink and check both are required,
        # then mark the distinction via an isolated helper node.
        dag = ComputationDAG([("a", "b")], nodes=["c"])
        req = required_nodes(dag)
        assert req == {"a", "b", "c"}  # isolated node is its own sink


class TestUpperBound:
    @pytest.mark.parametrize("model", ["base", "oneshot", "nodel"])
    def test_naive_schedule_within_bound(self, model):
        dag = pyramid_dag(3)
        inst = PebblingInstance(dag=dag, model=model, red_limit=3)
        cost = PebblingSimulator(inst).run(
            topological_schedule(inst), require_complete=True
        ).cost
        assert cost <= upper_bound_naive(dag, model)

    def test_compcost_bound_includes_epsilon_term(self):
        dag = chain_dag(10)
        plain = upper_bound_naive(dag, "base")
        cc = upper_bound_naive(dag, "compcost")
        assert cc == plain + Fraction(1, 100) * 10

    def test_optimum_within_bound(self):
        dag = pyramid_dag(2)
        for model in ("base", "oneshot", "nodel", "compcost"):
            inst = PebblingInstance(dag=dag, model=model, red_limit=3)
            assert solve_optimal(inst, return_schedule=False).cost <= upper_bound_naive(
                dag, model
            )


class TestLowerBounds:
    def test_base_oneshot_lower_is_zero(self):
        dag = pyramid_dag(2)
        assert trivial_lower_bound(dag, "base", 3) == 0
        assert trivial_lower_bound(dag, "oneshot", 3) == 0

    def test_nodel_lower_bound_formula(self):
        dag = chain_dag(10)
        assert nodel_lower_bound(dag, 2) == 8
        assert trivial_lower_bound(dag, "nodel", 2) == 8

    def test_nodel_lower_bound_tight_on_chain(self):
        dag = chain_dag(6)
        inst = PebblingInstance(dag=dag, model="nodel", red_limit=2)
        assert solve_optimal(inst, return_schedule=False).cost == nodel_lower_bound(
            dag, 2
        )

    def test_nodel_lower_bound_clamped_at_zero(self):
        assert nodel_lower_bound(chain_dag(3), 10) == 0

    def test_compcost_lower_bound_counts_non_sources(self):
        dag = chain_dag(5)  # 1 source + 4 non-sources
        assert compcost_lower_bound(dag) == Fraction(4, 100)

    def test_compcost_lower_bound_is_sound(self):
        dag = pyramid_dag(2)
        inst = PebblingInstance(dag=dag, model="compcost", red_limit=3)
        assert solve_optimal(inst, return_schedule=False).cost >= compcost_lower_bound(
            dag
        )

    @pytest.mark.parametrize("model", ["base", "oneshot", "nodel", "compcost"])
    def test_lower_le_upper(self, model):
        dag = pyramid_dag(3)
        assert trivial_lower_bound(dag, model, 3) <= upper_bound_naive(dag, model)


class TestHongKungCurves:
    def test_matmul_decreases_with_r(self):
        values = [matmul_io_lower_bound(16, R) for R in (4, 16, 64)]
        assert values == sorted(values, reverse=True)

    def test_matmul_scales_cubically(self):
        small = matmul_io_lower_bound(8, 4)
        big = matmul_io_lower_bound(16, 4)
        assert big / small == pytest.approx(8, rel=0.2)

    def test_fft_decreases_with_r(self):
        values = [fft_io_lower_bound(64, R) for R in (2, 8, 32)]
        assert values == sorted(values, reverse=True)

    def test_fft_nlogn_shape(self):
        ratio = fft_io_lower_bound(128, 4) / fft_io_lower_bound(64, 4)
        assert ratio == pytest.approx(128 * 7 / (64 * 6), rel=1e-6)

    def test_bounds_nonnegative(self):
        assert matmul_io_lower_bound(2, 1000) == 0.0

    def test_degenerate_sizes_clamp_to_zero(self):
        # the shared convention: degenerate-but-valid sizes are a vacuous
        # bound (0.0), not an error — for both curves
        assert fft_io_lower_bound(1, 4) == 0.0
        assert matmul_io_lower_bound(1, 1000) == 0.0

    def test_input_validation(self):
        for bound in (matmul_io_lower_bound, fft_io_lower_bound):
            with pytest.raises(ValueError):
                bound(0, 4)
            with pytest.raises(ValueError):
                bound(4, 0)

    def test_exhaustive_bounds_exact_when_search_finishes(self):
        dag = pyramid_dag(2)
        inst = PebblingInstance(dag=dag, model="oneshot", red_limit=3)
        lower, upper = exhaustive_cost_bounds(inst, node_budget=100_000)
        opt = solve_optimal(inst, return_schedule=False).cost
        assert lower == upper == opt

    def test_exhaustive_bounds_bracket_on_truncated_search(self):
        dag = pyramid_dag(3)
        inst = PebblingInstance(dag=dag, model="oneshot", red_limit=3)
        lower, upper = exhaustive_cost_bounds(inst, node_budget=50)
        opt = solve_optimal(inst, return_schedule=False).cost
        assert lower <= opt <= upper
        assert upper == upper_bound_naive(dag, "oneshot")

    @pytest.mark.parametrize("model", ["base", "oneshot", "nodel", "compcost"])
    def test_exhaustive_lower_end_never_exceeds_optimum(self, model):
        dag = pyramid_dag(2)
        inst = PebblingInstance(dag=dag, model=model, red_limit=3)
        opt = solve_optimal(inst, return_schedule=False).cost
        for budget in (1, 10, 100, 10_000):
            lower, upper = exhaustive_cost_bounds(inst, node_budget=budget)
            assert lower <= opt <= upper

    @pytest.mark.parametrize(
        "spec,model,red_limit,lower_end,optimum",
        [
            ("tradeoff:2x6", "oneshot", 4, "15", "16"),
            ("pyramid:3", "oneshot", 3, "5", "6"),
            ("h2c:4", "compcost", 4, "52/25", "102/25"),
        ],
    )
    def test_truncated_lower_end_is_lifted_by_the_bound(
        self, spec, model, red_limit, lower_end, optimum
    ):
        """None of these searches finishes in 500 expansions.  The lower
        end is the smallest open f under the cost model's bound; without
        the bound (plain g) it read 5, 1 and 103/50 here."""
        inst = PebblingInstance(
            dag=dag_from_spec(spec), model=model, red_limit=red_limit
        )
        lower, upper = exhaustive_cost_bounds(inst, node_budget=500)
        assert lower == Fraction(lower_end)
        assert lower < Fraction(optimum) <= upper

    def test_measured_cost_respects_matmul_shape(self):
        """Measured heuristic cost on matmul DAGs should sit above the
        lower-bound curve (sanity of both the curve and the pebbler)."""
        from repro.heuristics import fixed_order_schedule

        n, R = 3, 6
        dag = matmul_dag(n)
        inst = PebblingInstance(dag=dag, model="oneshot", red_limit=R)
        cost = PebblingSimulator(inst).run(
            fixed_order_schedule(inst), require_complete=True
        ).cost
        assert float(cost) >= matmul_io_lower_bound(n, R) - R
