"""Schedules: priced, replayable sequences of pebbling moves."""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

from .dag import Node
from .moves import Move

__all__ = ["Schedule", "CostBreakdown"]


class CostBreakdown:
    """Cost of a schedule split by operation kind.

    The paper's headline cost counts only transfer operations (Steps 1-2);
    compcost additionally charges computations.  The breakdown keeps the
    components separate so both views are available.
    """

    __slots__ = ("loads", "stores", "computes", "deletes", "load_cost",
                 "store_cost", "compute_cost", "delete_cost")

    def __init__(self) -> None:
        self.loads = 0
        self.stores = 0
        self.computes = 0
        self.deletes = 0
        self.load_cost = Fraction(0)
        self.store_cost = Fraction(0)
        self.compute_cost = Fraction(0)
        self.delete_cost = Fraction(0)

    @property
    def transfers(self) -> int:
        """Number of transfer operations (Steps 1 and 2)."""
        return self.loads + self.stores

    @property
    def transfer_cost(self) -> Fraction:
        return self.load_cost + self.store_cost

    @property
    def total_cost(self) -> Fraction:
        return self.load_cost + self.store_cost + self.compute_cost + self.delete_cost

    def as_dict(self) -> Dict[str, object]:
        return {
            "loads": self.loads,
            "stores": self.stores,
            "computes": self.computes,
            "deletes": self.deletes,
            "transfer_cost": self.transfer_cost,
            "compute_cost": self.compute_cost,
            "total_cost": self.total_cost,
        }

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"CostBreakdown(L={self.loads}, S={self.stores}, C={self.computes}, "
            f"D={self.deletes}, total={self.total_cost})"
        )


class Schedule:
    """An ordered sequence of moves, optionally annotated with its cost.

    A ``Schedule`` is just data: it does not know whether it is legal.  Use
    :class:`repro.core.simulator.PebblingSimulator` to execute and price it,
    or :func:`repro.core.validation.validate_schedule` for a full audit.
    """

    __slots__ = ("_moves",)

    def __init__(self, moves: Iterable[Move] = ()) -> None:
        self._moves: Tuple[Move, ...] = tuple(moves)

    @property
    def moves(self) -> Tuple[Move, ...]:
        return self._moves

    def __len__(self) -> int:
        return len(self._moves)

    def __iter__(self) -> Iterator[Move]:
        return iter(self._moves)

    def __getitem__(self, idx: "int | slice") -> "Move | Schedule":
        if isinstance(idx, slice):
            return Schedule(self._moves[idx])
        return self._moves[idx]

    def __add__(self, other: "Schedule | Sequence[Move]") -> "Schedule":
        other_moves = other.moves if isinstance(other, Schedule) else tuple(other)
        return Schedule(self._moves + tuple(other_moves))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schedule) and self._moves == other._moves

    def __hash__(self) -> int:
        return hash(self._moves)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if len(self._moves) <= 12:
            body = " ".join(str(m) for m in self._moves)
        else:
            head = " ".join(str(m) for m in self._moves[:6])
            tail = " ".join(str(m) for m in self._moves[-3:])
            body = f"{head} ... {tail}"
        return f"Schedule[{len(self._moves)}]({body})"

    # ------------------------------------------------------------------ #

    def count(self, kind: type) -> int:
        """Number of moves of a given class (e.g. ``schedule.count(Load)``)."""
        return sum(1 for m in self._moves if isinstance(m, kind))

    def nodes_touched(self) -> Set[Node]:
        """Set of nodes any move acts on."""
        return {m.node for m in self._moves}

    def compact_str(self) -> str:
        """Whole schedule in one-letter mnemonics, for golden tests/logs."""
        return " ".join(str(m) for m in self._moves)

    def as_tuples(self) -> List[Tuple[str, object]]:
        """JSON-friendly representation (see :mod:`repro.io.serialization`)."""
        return [m.as_tuple() for m in self._moves]
