"""Differential tests: the multi-level mask rules must agree with the reference.

Hypothesis generates random DAGs, random hierarchies (depth, capacities,
transfer costs, compute cost) and random move walks, and every property
asserts that :func:`repro.multilevel.bitgame.apply_ml_move_bits` and the
frozenset reference transcription in ``tests/legacy_reference.py``
(``apply_ml_move``) agree on

* every candidate move at every visited state — Compute, Delete and a
  Move to each level -1..L on each node, plus one node outside the DAG:
  same accept/reject, same error message, same cost, same resulting
  state (encode(reference step) == mask step; along the walks,
  decode(masks) == reference state too);
* the ``run`` fast path (same totals/peaks as stepping the reference
  one move at a time).
"""

from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import ComputationDAG, IllegalMoveError
from repro.core.bitstate import bit_layout
from repro.multilevel import (
    HierarchySpec,
    MLCompute,
    MLDelete,
    MLMove,
    MultilevelInstance,
    MultilevelSimulator,
    MultilevelState,
    apply_ml_move_bits,
    decode_ml_state,
    encode_ml_state,
    initial_ml_state,
)

from ..legacy_reference import apply_ml_move

DIFF_SETTINGS = dict(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def scenarios(draw):
    """A random (dag, hierarchy) pair small enough to walk exhaustively."""
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = []
    indeg = [0] * n
    for (u, v) in pairs:
        if indeg[v] < 2 and draw(st.booleans()):
            chosen.append((u, v))
            indeg[v] += 1
    dag = ComputationDAG(edges=chosen, nodes=range(n))
    levels = draw(st.integers(min_value=2, max_value=4))
    caps = [dag.max_indegree + 1 + draw(st.integers(0, 2))]
    for _ in range(levels - 2):
        caps.append(draw(st.integers(1, 4)))
    caps.append(None)
    costs = [
        Fraction(draw(st.sampled_from([0, 1, 2, "1/2", "3/2"])))
        for _ in range(levels - 1)
    ]
    compute = Fraction(draw(st.sampled_from([0, 0, "1/100"])))
    spec = HierarchySpec(
        capacities=tuple(caps), transfer_costs=tuple(costs), compute_cost=compute
    )
    return MultilevelInstance(dag=dag, spec=spec)


def candidate_moves(instance):
    """Every conceivable move, legal or not (incl. a node outside the DAG)."""
    nodes = list(instance.dag.nodes) + ["not-in-dag"]
    out = []
    for v in nodes:
        out.append(MLCompute(v))
        out.append(MLDelete(v))
        for to in range(-1, instance.spec.levels + 1):
            out.append(MLMove(v, to))
    return out


def assert_candidates_agree(instance, layout, state):
    """Apply every candidate move to ``state`` under both rule sets and
    assert the same outcome; return the accepted moves, in candidate
    order."""
    dag, spec = instance.dag, instance.spec
    masks = encode_ml_state(layout, state)
    accepted = []
    for move in candidate_moves(instance):
        try:
            new_state, cost = apply_ml_move(state, move, dag, spec)
            ref = (encode_ml_state(layout, new_state), cost)
            accepted.append(move)
        except IllegalMoveError as err:
            ref = (type(err), str(err))
        try:
            got = apply_ml_move_bits(layout, spec, masks, move)
        except IllegalMoveError as err:
            got = (type(err), str(err))
        assert got == ref, f"{move!r} diverges: masks {got!r}, reference {ref!r}"
    return accepted


def walk(data, instance, steps):
    """Random-walk both rule sets in lockstep, checking every candidate
    move at every visited state.

    Returns the list of (reference_state, masks) pairs visited.
    """
    layout = bit_layout(instance.dag)
    dag, spec = instance.dag, instance.spec
    state = MultilevelState.initial(spec.levels)
    masks = initial_ml_state(spec.levels)
    visited = [(state, masks)]
    while True:
        legal = assert_candidates_agree(instance, layout, state)
        if len(visited) > steps or not legal:
            return visited
        move = legal[data.draw(st.integers(0, len(legal) - 1), label="move")]
        state, cost = apply_ml_move(state, move, dag, spec)
        masks, cost_b = apply_ml_move_bits(layout, spec, masks, move)
        assert cost == cost_b, f"cost diverges on {move}"
        visited.append((state, masks))


class TestWalkAgreement:
    @settings(**DIFF_SETTINGS)
    @given(instance=scenarios(), data=st.data())
    def test_states_costs_and_legality_agree(self, instance, data):
        layout = bit_layout(instance.dag)
        for state, masks in walk(data, instance, steps=12):
            assert decode_ml_state(layout, masks) == state
            assert encode_ml_state(layout, state) == masks
            # the masks stay pairwise disjoint (one level per value)
            seen = 0
            for m in masks:
                assert seen & m == 0
                seen |= m


class TestIllegalMoveAgreement:
    @settings(**DIFF_SETTINGS)
    @given(instance=scenarios(), data=st.data())
    def test_arbitrary_moves_accepted_or_rejected_identically(self, instance, data):
        """Every candidate move on a state no walk need reach: each node
        on any level or on none, and possibly more pebbles on a level
        than its capacity."""
        levels = [set() for _ in range(instance.spec.levels)]
        choices = (None, *range(instance.spec.levels))
        for v in instance.dag.nodes:
            level = data.draw(st.sampled_from(choices), label=f"level of {v}")
            if level is not None:
                levels[level].add(v)
        state = MultilevelState(levels)
        assert_candidates_agree(instance, bit_layout(instance.dag), state)


class TestRunFastPath:
    @settings(**DIFF_SETTINGS)
    @given(instance=scenarios(), data=st.data())
    def test_run_matches_stepping(self, instance, data):
        sim = MultilevelSimulator(instance)
        layout = bit_layout(instance.dag)
        dag, spec = instance.dag, instance.spec
        schedule = []
        state = MultilevelState.initial(spec.levels)
        total = Fraction(0)
        peak = [0] * spec.levels
        for _ in range(12):
            legal = assert_candidates_agree(instance, layout, state)
            if not legal:
                break
            move = legal[data.draw(st.integers(0, len(legal) - 1), label="move")]
            schedule.append(move)
            state, cost = apply_ml_move(state, move, dag, spec)
            total += cost
            for i, s in enumerate(state.levels):
                peak[i] = max(peak[i], len(s))
        result = sim.run(schedule)
        assert result.cost == total
        assert result.final_state == state
        assert result.steps == len(schedule)
        assert result.peak_usage == tuple(peak)
        assert result.complete == sim.is_complete(state)
