"""Differential tests: the bitmask rules must agree with the reference.

Hypothesis generates random DAGs, models, red limits and move sequences,
and every property asserts that :func:`repro.core.bitstate.apply_move_bits`
and the frozenset reference transcription in ``tests/legacy_reference.py``
agree on

* every candidate move at every visited state — each of the four kinds on
  each node, plus one node outside the DAG: same accept/reject, same error
  type, same cost, same resulting state (encode(reference step) == bit
  step; along the walks, decode(bit state) == reference state too);
* hash/equality semantics (state equality iff bit-encoding equality,
  equal states hash equally).

The walks draw moves from the reference's *unpruned* legal-move
enumeration so Delete on blue pebbles and every model-specific corner is
exercised too.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    ComputationDAG,
    IllegalMoveError,
    PebblingState,
    apply_move_bits,
    bit_layout,
    cost_model_for,
)
from repro.core.bitstate import BitState
from repro.core.moves import MOVE_KINDS

from ..legacy_reference import apply_move, legal_moves

MODELS = ("base", "oneshot", "nodel", "compcost")

#: every property must clear at least this many examples; keep deadline
#: off — the first example pays bit-layout caching.
DIFF_SETTINGS = dict(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def scenarios(draw):
    """A random (dag, costs, red_limit) triple, small enough to exhaust."""
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = []
    indeg = [0] * n
    for (u, v) in pairs:
        if indeg[v] < 3 and draw(st.booleans()):
            chosen.append((u, v))
            indeg[v] += 1
    dag = ComputationDAG(edges=chosen, nodes=range(n))
    costs = cost_model_for(draw(st.sampled_from(MODELS)))
    red_limit = dag.max_indegree + 1 + draw(st.integers(min_value=0, max_value=2))
    return dag, costs, red_limit


def assert_candidates_agree(layout, state, dag, costs, red_limit):
    """Apply every candidate move to ``state`` in both rule sets and
    assert the same outcome; return the set of accepted moves.

    The candidates are the four kinds on every node plus one node outside
    the DAG (``-1``; the scenarios' nodes are ``0..n-1``).
    """
    bits = layout.encode_state(state)
    accepted = set()
    for kind in MOVE_KINDS:
        for node in (*dag, -1):
            move = kind(node)
            try:
                new_state, cost = apply_move(state, move, dag, costs, red_limit)
                ref = (layout.encode_state(new_state), cost)
                accepted.add(move)
            except IllegalMoveError as err:  # includes all subclasses
                ref = type(err)
            try:
                got = apply_move_bits(layout, bits, move, costs, red_limit)
            except IllegalMoveError as err:
                got = type(err)
            assert got == ref, f"{move} diverges: bits {got!r}, reference {ref!r}"
    return accepted


def walk(data, dag, costs, red_limit, steps, check_moves=True):
    """Random-walk both rule sets in lockstep, asserting agreement on the
    move taken and, with ``check_moves``, on every candidate move at every
    state.

    Returns the list of (reference_state, bit_state) pairs visited.
    """
    layout = bit_layout(dag)
    state = PebblingState.initial()
    bits = BitState.initial()
    visited = [(state, bits)]
    for _ in range(steps):
        legal = sorted(
            legal_moves(state, dag, costs, red_limit, prune_delete_blue=False)
        )
        if check_moves:
            accepted = assert_candidates_agree(layout, state, dag, costs, red_limit)
            assert accepted == set(legal), "legal-move enumeration diverges"
        if not legal:
            break
        move = legal[data.draw(st.integers(0, len(legal) - 1), label="move")]
        state, cost = apply_move(state, move, dag, costs, red_limit)
        bits, cost_b = apply_move_bits(layout, bits, move, costs, red_limit)
        assert cost == cost_b, f"cost diverges on {move}"
        visited.append((state, bits))
    return visited


class TestWalkAgreement:
    @settings(**DIFF_SETTINGS)
    @given(scenario=scenarios(), data=st.data())
    def test_states_costs_and_legality_agree(self, scenario, data):
        dag, costs, red_limit = scenario
        layout = bit_layout(dag)
        for state, bits in walk(data, dag, costs, red_limit, steps=25):
            assert layout.decode_state(bits) == state
            assert layout.encode_state(state) == bits

    @settings(**DIFF_SETTINGS)
    @given(scenario=scenarios(), data=st.data())
    def test_invariants_hold_along_walks(self, scenario, data):
        dag, costs, red_limit = scenario
        layout = bit_layout(dag)
        for state, bits in walk(data, dag, costs, red_limit, steps=20):
            state.check_invariants(dag)
            bits.check_invariants(layout)
            assert bits.is_complete(layout) == state.is_complete(dag)
            # the capacity invariant, which check_invariants does not cover
            assert len(state.red) <= red_limit
            # red-count agreement feeds the capacity rule
            assert bits.red.bit_count() == len(state.red)


class TestIllegalMoveAgreement:
    @settings(**DIFF_SETTINGS)
    @given(scenario=scenarios(), data=st.data())
    def test_arbitrary_moves_accepted_or_rejected_identically(self, scenario, data):
        """Every candidate move on a state no walk need reach: any
        computed set, disjoint red and blue pebbles on computed nodes,
        and possibly more reds than the limit."""
        dag, costs, red_limit = scenario
        nodes = sorted(dag)
        computed = data.draw(st.frozensets(st.sampled_from(nodes)), label="computed")
        colour = {
            v: data.draw(st.sampled_from(("red", "blue", None)), label=f"pebble {v}")
            for v in sorted(computed)
        }
        state = PebblingState(
            frozenset(v for v, c in colour.items() if c == "red"),
            frozenset(v for v, c in colour.items() if c == "blue"),
            computed,
        )
        assert_candidates_agree(bit_layout(dag), state, dag, costs, red_limit)


class TestHashEqualitySemantics:
    """The walks here skip the per-move check ``TestWalkAgreement`` makes."""

    @settings(**DIFF_SETTINGS)
    @given(scenario=scenarios(), data=st.data())
    def test_state_equality_iff_bit_equality(self, scenario, data):
        dag, costs, red_limit = scenario
        walk_a = walk(data, dag, costs, red_limit, steps=12, check_moves=False)
        walk_b = walk(data, dag, costs, red_limit, steps=12, check_moves=False)
        for state_a, bits_a in walk_a:
            for state_b, bits_b in walk_b:
                assert (state_a == state_b) == (bits_a == bits_b)
                if state_a == state_b:
                    assert hash(state_a) == hash(state_b)
                    assert hash(bits_a) == hash(bits_b)

    @settings(**DIFF_SETTINGS)
    @given(scenario=scenarios(), data=st.data())
    def test_dedup_containers_agree(self, scenario, data):
        """Search correctness rests on dict/set dedup: both encodings must
        collapse a walk to the same number of distinct states."""
        dag, costs, red_limit = scenario
        pairs = walk(data, dag, costs, red_limit, steps=25, check_moves=False)
        assert len({s for s, _ in pairs}) == len({b for _, b in pairs})
