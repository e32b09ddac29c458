"""Immutable pebbling states: the public value type of a board.

A :class:`PebblingState` records which nodes currently hold a red pebble,
which hold a blue pebble, and which have ever been computed.  The third
component is what makes the oneshot rule ("Step 3 at most once per node")
checkable, and is also convenient for heuristics in the other models.

The rules themselves run on the bitmask encoding of
:mod:`repro.core.bitstate`; callers convert at the edges via
:meth:`BitLayout.encode_state <repro.core.bitstate.BitLayout.encode_state>`
and :meth:`~repro.core.bitstate.BitLayout.decode_state`.  The canonical
identity of a state is its ``(red, blue, computed)`` triple: two states
are equal iff the triples are equal, which coincides exactly with
equality of their bit encodings under any fixed
:class:`~repro.core.bitstate.BitLayout`; ``__hash__`` is derived from the
same triple.  The differential test-suite pins this agreement.
"""

from __future__ import annotations

from typing import FrozenSet

from .dag import ComputationDAG, Node

__all__ = ["PebblingState"]

_EMPTY: FrozenSet[Node] = frozenset()


class PebblingState:
    """A snapshot of the board: (red, blue, computed) node sets.

    Invariants (maintained by :func:`~repro.core.bitstate.apply_move_bits`,
    checked by :meth:`check_invariants`):

    * ``red`` and ``blue`` are disjoint (a node holds at most one pebble);
    * every pebbled node has been computed (pebbles appear via Step 3 only);
    * ``computed`` never shrinks.
    """

    __slots__ = ("red", "blue", "computed", "_hash")

    def __init__(
        self,
        red: FrozenSet[Node] = _EMPTY,
        blue: FrozenSet[Node] = _EMPTY,
        computed: FrozenSet[Node] = _EMPTY,
    ) -> None:
        self.red = frozenset(red)
        self.blue = frozenset(blue)
        self.computed = frozenset(computed)
        self._hash = hash((self.red, self.blue, self.computed))

    # ------------------------------------------------------------------ #

    @classmethod
    def initial(cls) -> "PebblingState":
        """The empty board: no pebbles anywhere, nothing computed."""
        return cls()

    def pebbled(self) -> FrozenSet[Node]:
        """Nodes currently holding a pebble of either colour."""
        return self.red | self.blue

    def has_pebble(self, v: Node) -> bool:
        return v in self.red or v in self.blue

    def is_complete(self, dag: ComputationDAG) -> bool:
        """Completion condition: every sink holds a (red or blue) pebble."""
        return all(self.has_pebble(s) for s in dag.sinks)

    def check_invariants(self, dag: "ComputationDAG | None" = None) -> None:
        """Raise AssertionError if a structural invariant is violated.

        With a ``dag``, additionally checks that every tracked node exists
        in it (a state referencing foreign nodes cannot be bit-encoded and
        indicates the caller mixed up DAGs).
        """
        assert not (self.red & self.blue), "a node holds both a red and a blue pebble"
        pebbled = self.red | self.blue
        assert pebbled <= self.computed, "a pebbled node was never computed"
        if dag is not None:
            foreign = [v for v in self.computed if v not in dag]
            assert not foreign, f"state tracks nodes outside the DAG: {foreign[:5]!r}"

    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PebblingState):
            return NotImplemented
        return (
            self.red == other.red
            and self.blue == other.blue
            and self.computed == other.computed
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        def fmt(s: FrozenSet[Node]) -> str:
            return "{" + ",".join(sorted(map(str, s))) + "}"

        return (
            f"PebblingState(red={fmt(self.red)}, blue={fmt(self.blue)}, "
            f"computed={fmt(self.computed)})"
        )
