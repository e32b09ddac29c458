"""Coverage for PebblingState invariants, canonical hash/eq, conversions.

ISSUE 2 satellite: ``check_invariants`` was previously untested beyond two
happy-path asserts, and ``__hash__``/``__eq__`` are now documented as
canonical over the ``(red, blue, computed)`` triple — consistent with the
bitmask encoding.  These tests pin that contract at the unit level (the
hypothesis differential suite covers it statistically).
"""

import pytest

from repro import ComputationDAG, PebblingState, bit_layout
from repro.core.bitstate import BitState


@pytest.fixture
def dag():
    return ComputationDAG([("a", "c"), ("b", "c")])


def make(red=(), blue=(), computed=()):
    return PebblingState(frozenset(red), frozenset(blue), frozenset(computed))


class TestCheckInvariants:
    def test_legal_state_passes(self, dag):
        make(red={"a"}, blue={"b"}, computed={"a", "b"}).check_invariants(dag)

    def test_double_pebble_caught(self):
        with pytest.raises(AssertionError, match="both a red and a blue"):
            make(red={"a"}, blue={"a"}, computed={"a"}).check_invariants()

    def test_uncomputed_red_pebble_caught(self):
        with pytest.raises(AssertionError, match="never computed"):
            make(red={"a"}).check_invariants()

    def test_uncomputed_blue_pebble_caught(self):
        with pytest.raises(AssertionError, match="never computed"):
            make(blue={"a"}).check_invariants()

    def test_foreign_node_caught_with_dag(self, dag):
        state = make(red={"zz"}, computed={"zz"})
        state.check_invariants()  # structurally fine without a DAG...
        with pytest.raises(AssertionError, match="outside the DAG"):
            state.check_invariants(dag)  # ...but inconsistent with one

    def test_bitstate_invariants_mirror(self, dag):
        layout = bit_layout(dag)
        layout.encode_state(make(red={"a"}, computed={"a"})).check_invariants(layout)
        with pytest.raises(AssertionError, match="both a red and a blue"):
            BitState(1, 1, 1).check_invariants(layout)
        with pytest.raises(AssertionError, match="never computed"):
            BitState(1, 0, 0).check_invariants(layout)
        with pytest.raises(AssertionError, match="outside the layout"):
            BitState(0, 0, 1 << layout.n).check_invariants(layout)


class TestCanonicalHashEq:
    def test_equality_is_triple_equality(self):
        a = make(red={"a"}, computed={"a", "b"})
        b = make(red={"a"}, computed={"a", "b"})
        c = make(red={"a"}, computed={"a"})
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_comparison_with_foreign_types_is_not_implemented(self):
        state = make(red={"a"}, computed={"a"})
        assert state.__eq__("not a state") is NotImplemented
        # python falls back to identity for == / in
        assert state != "not a state"
        assert state in {state}

    def test_hash_consistent_across_construction_orders(self):
        a = PebblingState(frozenset(["a", "b"]), frozenset(), frozenset(["a", "b"]))
        b = PebblingState(frozenset(["b", "a"]), frozenset(), frozenset(["b", "a"]))
        assert a == b and hash(a) == hash(b)

    def test_encoding_preserves_identity(self, dag):
        layout = bit_layout(dag)
        a = make(red={"a"}, blue={"b"}, computed={"a", "b"})
        b = make(red={"a"}, blue={"b"}, computed={"a", "b", "c"})
        ea, eb = layout.encode_state(a), layout.encode_state(b)
        assert ea != eb  # differ only in computed history
        assert layout.decode_state(ea) == a
        assert layout.decode_state(eb) == b


class TestLayoutCache:
    def test_layout_cached_per_dag(self, dag):
        assert bit_layout(dag) is bit_layout(dag)

    def test_layout_matches_topological_order(self, dag):
        layout = bit_layout(dag)
        assert layout.nodes == dag.topological_order()
        assert layout.index[layout.nodes[0]] == 0
        # sinks/sources masks decode back to the DAG's partitions
        assert layout.decode_set(layout.sink_mask) == dag.sinks
        assert layout.decode_set(layout.source_mask) == dag.sources
