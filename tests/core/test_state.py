"""Tests for board transitions: every rule of every model variant.

The transitions run through the public :meth:`PebblingSimulator.step`;
``TestLegalMoves`` pins the move enumeration of the frozenset reference
that the differential walks draw from.
"""

from fractions import Fraction

import pytest

from repro import (
    CapacityExceededError,
    ComputationDAG,
    Compute,
    Delete,
    DeletionForbiddenError,
    IllegalMoveError,
    Load,
    PebblingInstance,
    PebblingSimulator,
    PebblingState,
    RecomputationError,
    Store,
    cost_model_for,
)

from ..legacy_reference import legal_moves


@pytest.fixture
def dag():
    # a, b -> c ; c -> d
    return ComputationDAG([("a", "c"), ("b", "c"), ("c", "d")])


BASE = cost_model_for("base")
ONESHOT = cost_model_for("oneshot")
NODEL = cost_model_for("nodel")
COMPCOST = cost_model_for("compcost")


def step(s, move, dag, model, red_limit):
    """``PebblingSimulator.step`` on a fresh instance of ``dag``."""
    inst = PebblingInstance(dag=dag, model=model, red_limit=red_limit)
    return PebblingSimulator(inst).step(s, move)


def state(red=(), blue=(), computed=None):
    red, blue = frozenset(red), frozenset(blue)
    if computed is None:
        computed = red | blue
    return PebblingState(red, blue, frozenset(computed))


class TestCompute:
    def test_source_computable_on_empty_board(self, dag):
        s2, cost = step(state(), Compute("a"), dag, "base", 3)
        assert "a" in s2.red and "a" in s2.computed
        assert cost == 0

    def test_inner_node_requires_all_inputs_red(self, dag):
        with pytest.raises(IllegalMoveError, match="without a red pebble"):
            step(state(red={"a"}), Compute("c"), dag, "base", 3)

    def test_inner_node_with_inputs_red(self, dag):
        s = state(red={"a", "b"})
        s2, cost = step(s, Compute("c"), dag, "base", 3)
        assert s2.red == {"a", "b", "c"}
        assert cost == 0

    def test_blue_input_does_not_count(self, dag):
        s = state(red={"a"}, blue={"b"})
        with pytest.raises(IllegalMoveError):
            step(s, Compute("c"), dag, "base", 3)

    def test_capacity_enforced(self, dag):
        # R=3 is the least this DAG admits; "d" takes the third slot
        s = state(red={"a", "b", "d"})
        with pytest.raises(CapacityExceededError):
            step(s, Compute("c"), dag, "base", 3)

    def test_compute_on_red_node_illegal(self, dag):
        s = state(red={"a"})
        with pytest.raises(IllegalMoveError, match="already holds a red"):
            step(s, Compute("a"), dag, "base", 3)

    def test_compute_replaces_blue_pebble(self, dag):
        # Recomputing a blue node turns it red (explicit nodel semantics).
        s = state(red=set(), blue={"a"})
        s2, _ = step(s, Compute("a"), dag, "nodel", 3)
        assert "a" in s2.red and "a" not in s2.blue

    def test_oneshot_forbids_recompute(self, dag):
        s = state(red=set(), blue=set(), computed={"a"})
        with pytest.raises(RecomputationError):
            step(s, Compute("a"), dag, "oneshot", 3)

    def test_base_allows_recompute(self, dag):
        s = state(red=set(), blue=set(), computed={"a"})
        s2, cost = step(s, Compute("a"), dag, "base", 3)
        assert "a" in s2.red
        assert cost == 0

    def test_compcost_charges_epsilon(self, dag):
        _, cost = step(state(), Compute("a"), dag, "compcost", 3)
        assert cost == Fraction(1, 100)

    def test_unknown_node_rejected(self, dag):
        with pytest.raises(IllegalMoveError, match="not in the DAG"):
            step(state(), Compute("zz"), dag, "base", 3)


class TestLoadStore:
    def test_load_blue_to_red(self, dag):
        s = state(blue={"a"})
        s2, cost = step(s, Load("a"), dag, "base", 3)
        assert s2.red == {"a"} and s2.blue == frozenset()
        assert cost == 1

    def test_load_requires_blue(self, dag):
        with pytest.raises(IllegalMoveError, match="no blue pebble"):
            step(state(red={"a"}), Load("a"), dag, "base", 3)

    def test_load_respects_capacity(self, dag):
        s = state(red={"a", "b", "d"}, blue={"c"}, computed={"a", "b", "c", "d"})
        with pytest.raises(CapacityExceededError):
            step(s, Load("c"), dag, "base", 3)

    def test_store_red_to_blue(self, dag):
        s = state(red={"a"})
        s2, cost = step(s, Store("a"), dag, "base", 3)
        assert s2.blue == {"a"} and s2.red == frozenset()
        assert cost == 1

    def test_store_requires_red(self, dag):
        with pytest.raises(IllegalMoveError, match="no red pebble"):
            step(state(blue={"a"}), Store("a"), dag, "base", 3)

    def test_store_frees_red_slot(self, dag):
        s = state(red={"a", "b", "d"})
        s2, _ = step(s, Store("a"), dag, "base", 3)
        s3, _ = step(s2, Compute("a"), dag, "base", 3)  # recompute into free slot
        assert s3.red == {"a", "b", "d"}


class TestDelete:
    def test_delete_red(self, dag):
        s = state(red={"a"})
        s2, cost = step(s, Delete("a"), dag, "base", 3)
        assert not s2.has_pebble("a")
        assert "a" in s2.computed  # history is preserved
        assert cost == 0

    def test_delete_blue(self, dag):
        s = state(blue={"a"})
        s2, _ = step(s, Delete("a"), dag, "base", 3)
        assert not s2.has_pebble("a")

    def test_delete_requires_pebble(self, dag):
        with pytest.raises(IllegalMoveError, match="no pebble"):
            step(state(), Delete("a"), dag, "base", 3)

    def test_nodel_forbids_delete(self, dag):
        s = state(red={"a"})
        with pytest.raises(DeletionForbiddenError):
            step(s, Delete("a"), dag, "nodel", 3)

    def test_oneshot_allows_delete(self, dag):
        s = state(red={"a"})
        s2, cost = step(s, Delete("a"), dag, "oneshot", 3)
        assert cost == 0 and not s2.has_pebble("a")


class TestStateObject:
    def test_initial_state_empty(self):
        s = PebblingState.initial()
        assert s.red == s.blue == s.computed == frozenset()

    def test_equality_and_hash(self):
        s1 = state(red={"a"}, blue={"b"})
        s2 = state(red={"a"}, blue={"b"})
        assert s1 == s2 and hash(s1) == hash(s2)

    def test_states_with_different_history_differ(self):
        s1 = state(red={"a"}, computed={"a"})
        s2 = state(red={"a"}, computed={"a", "b"})
        assert s1 != s2

    def test_is_complete(self, dag):
        assert not state().is_complete(dag)
        assert state(blue={"d"}).is_complete(dag)
        assert state(red={"d"}).is_complete(dag)

    def test_invariants_pass_for_legal_state(self):
        state(red={"a"}, blue={"b"}).check_invariants()

    def test_invariants_catch_double_pebble(self):
        s = PebblingState(frozenset({"a"}), frozenset({"a"}), frozenset({"a"}))
        with pytest.raises(AssertionError):
            s.check_invariants()

    def test_invariants_catch_uncomputed_pebble(self):
        s = PebblingState(frozenset({"a"}), frozenset(), frozenset())
        with pytest.raises(AssertionError):
            s.check_invariants()


class TestLegalMoves:
    def all_legal(self, s, dag, costs, R, **kw):
        return set(legal_moves(s, dag, costs, R, **kw))

    def test_empty_board_offers_source_computes_only(self, dag):
        moves = self.all_legal(state(), dag, BASE, 3)
        assert moves == {Compute("a"), Compute("b")}

    def test_full_red_blocks_compute_and_load(self, dag):
        s = state(red={"a", "b"}, blue={"c"}, computed={"a", "b", "c"})
        moves = self.all_legal(s, dag, BASE, 2)
        assert Load("c") not in moves
        assert Compute("c") not in moves
        assert Store("a") in moves and Delete("a") in moves

    def test_oneshot_excludes_computed_nodes(self, dag):
        s = state(computed={"a"})
        moves = self.all_legal(s, dag, ONESHOT, 3)
        assert Compute("a") not in moves
        assert Compute("b") in moves

    def test_nodel_has_no_deletes(self, dag):
        s = state(red={"a"})
        moves = self.all_legal(s, dag, NODEL, 3)
        assert not any(isinstance(m, Delete) for m in moves)

    def test_delete_blue_pruned_by_default(self, dag):
        s = state(blue={"a"})
        assert Delete("a") not in self.all_legal(s, dag, BASE, 3)
        assert Delete("a") in self.all_legal(
            s, dag, BASE, 3, prune_delete_blue=False
        )

    def test_every_enumerated_move_is_applicable(self, dag):
        s = state(red={"a"}, blue={"b"}, computed={"a", "b"})
        for costs in (BASE, ONESHOT, NODEL, COMPCOST):
            for m in legal_moves(s, dag, costs, 3, prune_delete_blue=False):
                step(s, m, dag, costs.model, 3)  # must not raise
