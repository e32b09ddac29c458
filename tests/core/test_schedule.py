"""Tests for Schedule and CostBreakdown containers."""

import typing
from fractions import Fraction
from typing import Set

from repro import Compute, CostBreakdown, Delete, Load, Node, Schedule, Store


class TestSchedule:
    def test_construction_and_length(self):
        s = Schedule([Compute("a"), Store("a")])
        assert len(s) == 2
        assert list(s) == [Compute("a"), Store("a")]

    def test_indexing_and_slicing(self):
        s = Schedule([Compute("a"), Store("a"), Load("a")])
        assert s[0] == Compute("a")
        assert s[1:] == Schedule([Store("a"), Load("a")])

    def test_concatenation(self):
        s = Schedule([Compute("a")]) + Schedule([Store("a")])
        assert s == Schedule([Compute("a"), Store("a")])

    def test_concatenation_with_plain_list(self):
        s = Schedule([Compute("a")]) + [Store("a")]
        assert len(s) == 2

    def test_equality_and_hash(self):
        a = Schedule([Compute("x")])
        b = Schedule([Compute("x")])
        assert a == b and hash(a) == hash(b)

    def test_count_by_kind(self):
        s = Schedule([Compute("a"), Store("a"), Store("b"), Delete("a")])
        assert s.count(Store) == 2
        assert s.count(Load) == 0

    def test_nodes_touched(self):
        s = Schedule([Compute("a"), Store("b")])
        assert s.nodes_touched() == {"a", "b"}

    def test_nodes_touched_annotation_resolves(self):
        # the module once annotated Set[Node] without importing Node
        hints = typing.get_type_hints(Schedule.nodes_touched)
        assert hints["return"] == Set[Node]

    def test_compact_str(self):
        s = Schedule([Compute("a"), Store("a")])
        assert s.compact_str() == "C(a) S(a)"

    def test_as_tuples_round_trippable(self):
        from repro import move_from_tuple

        s = Schedule([Compute("a"), Load("b")])
        assert [move_from_tuple(t) for t in s.as_tuples()] == list(s)

    def test_repr_truncates_long_schedules(self):
        s = Schedule([Compute(i) for i in range(50)])
        assert "..." in repr(s)


class TestCostBreakdown:
    def test_records_by_kind(self):
        b = CostBreakdown()
        b.loads = b.stores = b.computes = b.deletes = 1
        b.load_cost = b.store_cost = Fraction(1)
        b.compute_cost = Fraction(1, 100)
        assert b.transfers == 2
        assert b.transfer_cost == 2
        assert b.total_cost == Fraction(201, 100)

    def test_as_dict_keys(self):
        b = CostBreakdown()
        d = b.as_dict()
        assert set(d) == {
            "loads", "stores", "computes", "deletes",
            "transfer_cost", "compute_cost", "total_cost",
        }
