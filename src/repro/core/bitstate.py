"""Bitmask encoding of pebbling states and the one scalar transition function.

Every hot loop in this repository (the exact solvers, the simulator, the
heuristic pebblers) ultimately manipulates triples of node sets
``(red, blue, computed)``.  The public value type,
:class:`~repro.core.state.PebblingState`, stores them as ``frozenset``s:
readable, but every transition would allocate three fresh sets and
re-hash them.  This module provides the canonical *bitmask* encoding
instead:

* a :class:`BitLayout` assigns every DAG node a bit index (its position in
  the DAG's topological order) and precomputes the masks searches need —
  per-node parent and successor masks, the sink/source masks;
* a state is then just three Python integers.  Transitions are a couple of
  bitwise operations, hashing is integer hashing, and a set-inclusion test
  (``parents(v) all red``) is one AND.

Conversion boundary
-------------------
:class:`PebblingState <repro.core.state.PebblingState>` remains the public
API: schedules, validation and serialization are unchanged.  Code converts
at the edge via :meth:`BitLayout.encode_state` / :meth:`BitLayout.decode_state`,
runs its hot loop on masks, and decodes at the end.

:func:`apply_move_bits` is the package's one scalar transcription of the
four moves and their prices; :meth:`PebblingSimulator.run
<repro.core.simulator.PebblingSimulator.run>` and ``step`` both run on it.
:func:`repro.core.validation.validate_schedule` is the independent audit.
The differential test-suite (``tests/core/test_bitstate_differential.py``)
checks every accept, reject, error type, cost and resulting state against
a frozenset transcription of the rules kept in the tests, on
hypothesis-generated DAGs and move sequences.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Tuple

from .dag import ComputationDAG, Node
from .errors import (
    CapacityExceededError,
    DeletionForbiddenError,
    IllegalMoveError,
    RecomputationError,
)
from .models import CostModel
from .moves import Compute, Delete, Load, Move, Store

if TYPE_CHECKING:  # pragma: no cover
    from .state import PebblingState

__all__ = [
    "BitLayout",
    "BitState",
    "bit_layout",
    "apply_move_bits",
    "iter_bits",
]


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class BitState(NamedTuple):
    """An immutable pebbling state as three bitmasks over a :class:`BitLayout`.

    Being a ``NamedTuple`` of ints it hashes and compares as fast as a
    plain tuple; two states are equal iff their masks are equal, which —
    for a fixed layout — coincides exactly with
    :class:`~repro.core.state.PebblingState` equality of the decoded sets.
    """

    red: int
    blue: int
    computed: int

    @classmethod
    def initial(cls) -> "BitState":
        return cls(0, 0, 0)

    def pebbled(self) -> int:
        return self.red | self.blue

    def is_complete(self, layout: "BitLayout") -> bool:
        """Every sink holds a pebble of either colour."""
        return layout.sink_mask & ~(self.red | self.blue) == 0

    def check_invariants(self, layout: "BitLayout") -> None:
        """Raise AssertionError if a structural invariant is violated."""
        assert self.red & self.blue == 0, "a node holds both a red and a blue pebble"
        assert (self.red | self.blue) & ~self.computed == 0, (
            "a pebbled node was never computed"
        )
        assert (self.red | self.blue | self.computed) & ~layout.full_mask == 0, (
            "a mask addresses bits outside the layout"
        )


class BitLayout:
    """The node <-> bit-index mapping of one DAG plus precomputed masks.

    Bit ``i`` is node ``dag.topological_order()[i]``, so a mask's lowest
    set bit is also its topologically-earliest node.  Layouts are cached
    on the DAG (see :func:`bit_layout`); all searches over the same DAG
    share one layout.

    Attributes
    ----------
    nodes:
        Tuple of nodes, position = bit index (topological order).
    index:
        Inverse mapping ``node -> bit index``.
    parent_masks / succ_masks:
        Per-bit masks of the node's inputs / consumers.
    source_mask / sink_mask / full_mask:
        Masks of the sources, the sinks, and all nodes.
    repr_rank:
        Per-bit dense rank of ``repr(node)`` (built on first use).
    """

    __slots__ = (
        "dag",
        "n",
        "nodes",
        "index",
        "parent_masks",
        "succ_masks",
        "source_mask",
        "sink_mask",
        "full_mask",
        "_sink_closures",
        "_repr_rank",
    )

    def __init__(self, dag: ComputationDAG) -> None:
        self.dag = dag
        self.nodes: Tuple[Node, ...] = dag.topological_order()
        self.n = len(self.nodes)
        self.index: Dict[Node, int] = {v: i for i, v in enumerate(self.nodes)}
        idx = self.index
        self.parent_masks: List[int] = [0] * self.n
        self.succ_masks: List[int] = [0] * self.n
        for i, v in enumerate(self.nodes):
            pm = 0
            for u in dag.predecessors(v):
                pm |= 1 << idx[u]
            self.parent_masks[i] = pm
            sm = 0
            for w in dag.successors(v):
                sm |= 1 << idx[w]
            self.succ_masks[i] = sm
        self.full_mask = (1 << self.n) - 1 if self.n else 0
        self.source_mask = sum(1 << idx[v] for v in dag.sources)
        self.sink_mask = sum(1 << idx[v] for v in dag.sinks)
        self._sink_closures: "Dict[int, int] | None" = None
        self._repr_rank: "List[int] | None" = None

    # ------------------------------------------------------------------ #
    # set / state conversion
    # ------------------------------------------------------------------ #

    def encode_set(self, nodes: Iterable[Node]) -> int:
        idx = self.index
        mask = 0
        for v in nodes:
            mask |= 1 << idx[v]
        return mask

    def decode_set(self, mask: int) -> FrozenSet[Node]:
        nodes = self.nodes
        return frozenset(nodes[i] for i in iter_bits(mask))

    def encode_state(self, state: PebblingState) -> BitState:
        """Encode a :class:`~repro.core.state.PebblingState`."""
        return BitState(
            self.encode_set(state.red),
            self.encode_set(state.blue),
            self.encode_set(state.computed),
        )

    def decode_state(self, bits: BitState) -> PebblingState:
        """Decode back to a :class:`~repro.core.state.PebblingState`."""
        from .state import PebblingState

        return PebblingState(
            self.decode_set(bits.red),
            self.decode_set(bits.blue),
            self.decode_set(bits.computed),
        )

    # ------------------------------------------------------------------ #
    # derived masks
    # ------------------------------------------------------------------ #

    def ancestor_closure_of_sink(self, sink_bit: int) -> int:
        """Mask of a sink plus all its ancestors (cached per sink).

        Used by admissible heuristics: these are the nodes some unpebbled
        sink still transitively needs.
        """
        if self._sink_closures is None:
            self._sink_closures = {}
            for s in iter_bits(self.sink_mask):
                closure = 1 << s
                stack = [s]
                while stack:
                    b = stack.pop()
                    for p in iter_bits(self.parent_masks[b] & ~closure):
                        closure |= 1 << p
                        stack.append(p)
                self._sink_closures[s] = closure
        return self._sink_closures[sink_bit]

    @property
    def repr_rank(self) -> List[int]:
        """Per-bit dense rank of ``repr(node)``: equal reprs share a rank,
        so sorting bits by it orders them as sorting nodes by ``repr`` does.

        The pebblers break ties on it; it is built once per layout.
        """
        if self._repr_rank is None:
            reprs = [repr(v) for v in self.nodes]
            dense = {r: k for k, r in enumerate(sorted(set(reprs)))}
            self._repr_rank = [dense[r] for r in reprs]
        return self._repr_rank

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BitLayout(n={self.n}, dag={self.dag!r})"


def bit_layout(dag: ComputationDAG) -> BitLayout:
    """The (cached) :class:`BitLayout` of ``dag``.

    The layout is memoised on the DAG object itself, so every consumer —
    solvers, simulator, pebblers — shares one set of precomputed masks.
    """
    layout = dag._bit_layout
    if layout is None:
        layout = BitLayout(dag)
        dag._bit_layout = layout
    return layout


# ---------------------------------------------------------------------- #
# the transition function
# ---------------------------------------------------------------------- #


def apply_move_bits(
    layout: BitLayout,
    state: BitState,
    move: Move,
    costs: CostModel,
    red_limit: int,
    step: "int | None" = None,
) -> Tuple[BitState, "object"]:
    """Apply one move to a state, returning ``(new_state, cost)``.

    Raises a subclass of :class:`IllegalMoveError` when the move violates
    the rules of the model described by ``costs``:

    * Load needs a blue pebble on the node and a free red slot;
    * Store needs a red pebble on the node;
    * Compute needs every input red, a free red slot, the node not already
      red, and (oneshot) the node never computed before;
    * Delete needs a pebble on the node and is illegal in nodel.

    The cost is the model's :class:`fractions.Fraction` price of the move.
    """
    red, blue, computed = state
    v = move.node
    bit_index = layout.index.get(v)
    if bit_index is None:
        raise IllegalMoveError(move, f"node {v!r} is not in the DAG", step)
    bit = 1 << bit_index

    if isinstance(move, Load):
        if not blue & bit:
            raise IllegalMoveError(move, "node holds no blue pebble", step)
        if red.bit_count() + 1 > red_limit:
            raise CapacityExceededError(move, red_limit, step)
        return BitState(red | bit, blue & ~bit, computed), costs.load_cost

    if isinstance(move, Store):
        if not red & bit:
            raise IllegalMoveError(move, "node holds no red pebble", step)
        return BitState(red & ~bit, blue | bit, computed), costs.store_cost

    if isinstance(move, Compute):
        if red & bit:
            raise IllegalMoveError(move, "node already holds a red pebble", step)
        if not costs.recompute_allowed and computed & bit:
            raise RecomputationError(move, step)
        not_red = layout.parent_masks[bit_index] & ~red
        if not_red:
            missing = [layout.nodes[i] for i in iter_bits(not_red)]
            raise IllegalMoveError(
                move, f"input(s) without a red pebble: {missing[:5]!r}", step
            )
        if red.bit_count() + 1 > red_limit:
            raise CapacityExceededError(move, red_limit, step)
        return BitState(red | bit, blue & ~bit, computed | bit), costs.compute_cost

    if isinstance(move, Delete):
        if not costs.delete_allowed:
            raise DeletionForbiddenError(move, step)
        if red & bit:
            return BitState(red & ~bit, blue, computed), costs.delete_cost
        if blue & bit:
            return BitState(red, blue & ~bit, computed), costs.delete_cost
        raise IllegalMoveError(move, "node holds no pebble", step)

    raise IllegalMoveError(move, f"unknown move type {type(move).__name__}", step)
