"""The mask pebbler against the node-level reference, move for move.

``tests/legacy_reference.py`` keeps the node-level pebbler: cost tiers
computed per candidate, and policies that rank nodes on
``(rank, repr(v))`` through an ``EvictionContext``.  The package's
pebbler keeps the tiers as masks and ranks bit indices, breaking ties on
the layout's ``repr`` rank.  Every schedule must be the same: for fixed
orders (the DAG's and a shuffled topological one), for the orders the
greedy rules choose, and for beam search's winner, under every policy.
The hypothesis DAGs carry random integer labels, so ``repr`` order and
bit order differ.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import ComputationDAG, PebblingInstance
from repro.generators import dag_from_spec
from repro.heuristics import (
    FurthestNextUse,
    GreedyRule,
    LeastRecentlyUsed,
    MinRemainingUses,
    RandomEviction,
    beam_search_pebble,
    fixed_order_schedule,
    greedy_pebble,
)

from .. import legacy_reference as ref
from ..test_properties import small_dags
from .test_greedy import KERNELS, MODELS


def policy_pairs(seed):
    """(package policy, reference policy); ``None`` is each side's default."""
    return [
        (None, None),
        (FurthestNextUse(), ref.FurthestNextUse()),
        (MinRemainingUses(), ref.MinRemainingUses()),
        (LeastRecentlyUsed(), ref.LeastRecentlyUsed()),
        (RandomEviction(seed), ref.RandomEviction(seed)),
    ]


def shuffled_topological_order(dag, seed):
    """A topological order that takes a random ready node at each step."""
    rng = random.Random(seed)
    waiting = {v: len(dag.predecessors(v)) for v in dag}
    ready = [v for v in dag.topological_order() if not waiting[v]]
    order = []
    while ready:
        v = ready.pop(rng.randrange(len(ready)))
        order.append(v)
        for w in dag.successors(v):
            waiting[w] -= 1
            if not waiting[w]:
                ready.append(w)
    return order


@st.composite
def relabelled_dags(draw):
    """``small_dags`` with distinct random integer labels ('10' sorts
    before '9', so ``repr`` order is not the bit order)."""
    dag = draw(small_dags(max_nodes=9, max_indegree=3))
    labels = draw(st.lists(st.integers(0, 999), min_size=dag.n_nodes,
                           max_size=dag.n_nodes, unique=True))
    name = dict(zip(dag.topological_order(), labels))
    return ComputationDAG(edges=[(name[u], name[v]) for u, v in dag.edges()],
                          nodes=labels)


def assert_fixed_orders_match(inst, seed):
    for order in (None, shuffled_topological_order(inst.dag, seed)):
        for mine, theirs in policy_pairs(seed):
            assert fixed_order_schedule(inst, order, eviction=mine) == (
                ref.fixed_order_schedule(inst, order, eviction=theirs)
            ), (order, mine)


def assert_greedy_orders_match(inst, seed):
    for rule in GreedyRule:
        for mine, theirs in policy_pairs(seed):
            result = greedy_pebble(inst, rule, eviction=mine)
            replay = ref.OnlinePebbler(inst, eviction=theirs).run_order(result.order)
            assert result.schedule == replay, (rule, mine)


def assert_beam_winner_matches(inst, width):
    # no RandomEviction: the beam's clones share one stream, so the
    # winner's draws interleave with its rivals' and a fresh replay's do not
    for mine, theirs in policy_pairs(0)[:-1]:
        result = beam_search_pebble(inst, beam_width=width, eviction=mine)
        replay = ref.OnlinePebbler(inst, eviction=theirs).run_order(result.order)
        assert result.schedule == replay, mine


class TestSmallDags:
    @settings(deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        dag=relabelled_dags(),
        model=st.sampled_from(MODELS),
        extra=st.integers(0, 2),
        seed=st.integers(0, 2**16),
    )
    def test_fixed_and_greedy_orders(self, dag, model, extra, seed):
        inst = PebblingInstance(dag=dag, model=model, red_limit=dag.min_red_pebbles + extra)
        assert_fixed_orders_match(inst, seed)
        assert_greedy_orders_match(inst, seed)

    @settings(deadline=None, max_examples=20,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        dag=relabelled_dags(),
        model=st.sampled_from(MODELS),
        width=st.integers(1, 4),
    )
    def test_beam_winner(self, dag, model, width):
        inst = PebblingInstance(dag=dag, model=model, red_limit=dag.min_red_pebbles)
        assert_beam_winner_matches(inst, width)


class TestKernelDags:
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("spec,R", KERNELS)
    def test_fixed_and_greedy_orders(self, spec, R, model):
        inst = PebblingInstance(dag=dag_from_spec(spec), model=model, red_limit=R)
        assert_fixed_orders_match(inst, 11)
        assert_greedy_orders_match(inst, 11)

    @pytest.mark.parametrize("model", MODELS)
    def test_beam_winner(self, model):
        inst = PebblingInstance(dag=dag_from_spec("butterfly:3"), model=model, red_limit=4)
        assert_beam_winner_matches(inst, 2)
