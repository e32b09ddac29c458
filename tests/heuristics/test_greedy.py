"""Tests for the Section 8 greedy rules."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import ComputationDAG, PebblingInstance, validate_schedule
from repro.generators import (
    dag_from_spec,
    independent_tasks_dag,
    layered_random_dag,
    pyramid_dag,
)
from repro.heuristics import GreedyRule, OnlinePebbler, greedy_pebble
from repro.solvers import solve_optimal, upper_bound_naive

from ..test_properties import small_dags


ALL_RULES = list(GreedyRule)


def make(dag, model="oneshot", R=4):
    return PebblingInstance(dag=dag, model=model, red_limit=R)


class TestGreedyBasics:
    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_produces_valid_complete_schedule(self, rule):
        inst = make(pyramid_dag(3), R=3)
        result = greedy_pebble(inst, rule)
        report = validate_schedule(inst, result.schedule)
        assert report.ok, report.violations[:3]
        assert report.cost == result.cost

    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_computes_every_node_once(self, rule):
        dag = pyramid_dag(2)
        result = greedy_pebble(make(dag, R=3), rule)
        assert sorted(result.order, key=repr) == sorted(dag.nodes, key=repr)

    def test_rule_accepts_string(self):
        inst = make(pyramid_dag(2), R=3)
        result = greedy_pebble(inst, "most-red-inputs")
        assert result.rule is GreedyRule.MOST_RED_INPUTS

    @pytest.mark.parametrize("model", ["base", "oneshot", "nodel", "compcost"])
    def test_all_models_supported(self, model):
        inst = make(pyramid_dag(2), model, R=3)
        result = greedy_pebble(inst)
        assert validate_schedule(inst, result.schedule).ok

    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_within_naive_upper_bound(self, rule):
        dag = layered_random_dag([4, 4, 3], indegree=2, seed=3)
        inst = make(dag, R=3)
        result = greedy_pebble(inst, rule)
        assert result.cost <= upper_bound_naive(dag, "oneshot")

    def test_order_is_topological(self):
        dag = layered_random_dag([3, 3, 3], indegree=2, seed=1)
        result = greedy_pebble(make(dag, R=3))
        pos = {v: i for i, v in enumerate(result.order)}
        for u, v in dag.edges():
            assert pos[u] < pos[v]


class TestPaperProperties:
    def test_red_rules_coincide_on_uniform_indegree(self):
        """Section 8: with uniform (non-source) indegree k, 'most red
        inputs' and 'red ratio' are the same ordering (ratio = red / k)."""
        dag = independent_tasks_dag(4, 3)
        inst = make(dag, R=4)
        a = greedy_pebble(inst, GreedyRule.MOST_RED_INPUTS)
        b = greedy_pebble(inst, GreedyRule.RED_RATIO)
        assert a.order == b.order and a.cost == b.cost

    def test_all_rules_free_without_pressure(self):
        """With R large enough that nothing is ever stored, every rule
        pebbles for free (they may order ties differently, but no rule can
        be misled into paying transfers)."""
        dag = independent_tasks_dag(3, 3)
        inst = make(dag, R=dag.n_nodes + 1)
        assert all(greedy_pebble(inst, r).cost == 0 for r in ALL_RULES)

    def test_greedy_prefers_partially_red_groups(self):
        """With red pebbles on its inputs, a target must win against
        fresh groups (the mechanism the Theorem 4 misguidance exploits)."""
        # two tasks; task 0's inputs get computed first by tie-breaking,
        # then greedy must finish task 0 before starting task 1's inputs.
        dag = independent_tasks_dag(2, 2)
        inst = make(dag, R=3)
        result = greedy_pebble(inst, GreedyRule.MOST_RED_INPUTS)
        order = list(result.order)
        t0 = order.index(("task", 0))
        t1 = order.index(("task", 1))
        first_task = min(t0, t1)
        # the first task computed must appear before any input of the other
        later_task = ("task", 1) if first_task == t0 else ("task", 0)
        later_inputs = [order.index(("in", later_task[1], i)) for i in range(2)]
        assert all(first_task < i for i in later_inputs)

    def test_greedy_can_be_suboptimal(self):
        """The paper's whole point: greedy != optimal.  A small instance
        where following the reddest target first forces extra spills."""
        # shared hub 'h' plus two targets with disjoint big input sets
        dag = ComputationDAG(
            [
                ("h", "t1"), ("a", "t1"), ("b", "t1"),
                ("h", "t2"), ("c", "t2"), ("d", "t2"),
                ("t1", "s"), ("t2", "s"),
            ]
        )
        inst = make(dag, R=4)
        greedy_cost = greedy_pebble(inst).cost
        opt_cost = solve_optimal(inst, return_schedule=False).cost
        assert greedy_cost >= opt_cost

    def test_greedy_optimal_on_chain(self):
        from repro.generators import chain_dag

        inst = make(chain_dag(10), R=2)
        assert greedy_pebble(inst).cost == 0


# --------------------------------------------------------------------------- #
# differential: the mask selection against a node-level reference
# --------------------------------------------------------------------------- #

MODELS = ["base", "oneshot", "nodel", "compcost"]

#: the kernel DAGs and budgets of the ``heur:portfolio`` cells in
#: perfbench/cells.py (``KERNELS``), copied so the tests never import the
#: benchmark: the ``workloads-smoke`` grid and the Theorem 4 grid
KERNELS = [
    ("matmul:4:b2", 4),
    ("matmul:4:b2", 8),
    ("conv:6:3:c2", 4),
    ("conv:6:3:c2", 8),
    ("attn:3:h2", 4),
    ("attn:3:h2", 8),
    ("stencil:3x3:t2", 8),
    ("butterfly:3", 4),
    ("butterfly:3", 8),
    ("ggrid:4x12", 17),
]


def reference_greedy(instance, rule):
    """The rule at node level: the ready node maximising (score, the best
    uncomputed consumer's red-input count, minus the topological index).

    It reads only the pebbler's decoded node sets and the DAG's adjacency,
    and shares no mask code with :func:`greedy_pebble`.
    """
    dag = instance.dag
    topo = dag.topological_order()
    position = {v: i for i, v in enumerate(topo)}
    pebbler = OnlinePebbler(instance)
    order = []
    while True:
        red, blue, computed = pebbler.red, pebbler.blue, pebbler.computed
        ready = [
            v for v in topo
            if v not in computed and all(p in computed for p in dag.predecessors(v))
        ]
        if not ready:
            break

        def red_inputs(v):
            return sum(1 for p in dag.predecessors(v) if p in red)

        def key(v):
            indegree = len(dag.predecessors(v))
            if rule is GreedyRule.MOST_RED_INPUTS:
                score = float(red_inputs(v))
            elif rule is GreedyRule.FEWEST_BLUE_INPUTS:
                score = -float(sum(1 for p in dag.predecessors(v) if p in blue))
            else:
                score = red_inputs(v) / indegree if indegree else 0.0
            secondary = max(
                (red_inputs(w) for w in dag.successors(v) if w not in computed),
                default=0,
            )
            return (score, float(secondary), -position[v])

        v = max(ready, key=key)
        pebbler.compute_next(v)
        order.append(v)
    return tuple(order), pebbler.schedule()


def assert_matches_reference(inst):
    for rule in ALL_RULES:
        result = greedy_pebble(inst, rule)
        order, schedule = reference_greedy(inst, rule)
        assert result.order == order, rule
        assert result.schedule == schedule, rule


class TestMaskSelectionMatchesReference:
    @settings(deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        dag=small_dags(max_nodes=9, max_indegree=3),
        model=st.sampled_from(MODELS),
        extra=st.integers(0, 2),
    )
    def test_small_dags(self, dag, model, extra):
        assert_matches_reference(make(dag, model, R=dag.min_red_pebbles + extra))

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("spec,R", KERNELS)
    def test_kernel_dags(self, spec, R, model):
        assert_matches_reference(make(dag_from_spec(spec), model, R=R))
