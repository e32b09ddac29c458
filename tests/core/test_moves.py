"""Tests for the move algebra."""

import pytest

from repro import Compute, Delete, Load, Store, move_from_tuple
from repro.core.moves import MOVE_KINDS


class TestMoveBasics:
    def test_equality_same_kind_same_node(self):
        assert Load("v") == Load("v")
        assert Load("v") != Load("w")

    def test_inequality_across_kinds(self):
        assert Load("v") != Store("v")
        assert Compute("v") != Delete("v")

    def test_hashable_and_distinct_in_sets(self):
        moves = {Load("v"), Store("v"), Compute("v"), Delete("v"), Load("v")}
        assert len(moves) == 4

    def test_str_mnemonics(self):
        assert str(Load("v")) == "L(v)"
        assert str(Store("v")) == "S(v)"
        assert str(Compute("v")) == "C(v)"
        assert str(Delete("v")) == "D(v)"

    def test_repr_contains_node(self):
        assert "'v'" in repr(Load("v"))

    def test_ordering_by_kind_then_node(self):
        assert Load("b") < Store("a")
        assert Load("a") < Load("b")
        assert sorted([Delete("x"), Load("x")])[0] == Load("x")

    def test_kind_ids_are_distinct(self):
        assert len({cls.kind_id for cls in MOVE_KINDS}) == 4

    def test_nodes_may_be_tuples(self):
        m = Compute(("group", 3))
        assert m.node == ("group", 3)
        assert m == Compute(("group", 3))


class TestSerialization:
    def test_round_trip(self):
        for cls in MOVE_KINDS:
            m = cls("node7")
            assert move_from_tuple(m.as_tuple()) == m

    def test_as_tuple_format(self):
        assert Store("x").as_tuple() == ("store", "x")

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown move kind"):
            move_from_tuple(("teleport", "x"))
