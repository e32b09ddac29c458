"""Bitmask encoding of multi-level pebbling states and their transition.

This module is the multi-level twin of :mod:`repro.core.bitstate`: it
reuses the same cached :class:`~repro.core.bitstate.BitLayout` (node <->
bit index, parent masks) and represents a board as a *tuple of ints, one
mask per memory level*.  A value occupies at most one level, so the
masks are pairwise disjoint; "all inputs of v sit in fastest memory" is
one AND against ``masks[0]``.

Conversion boundary
-------------------
:class:`~repro.multilevel.game.MultilevelState` stays the public API.
Code converts at the edge via :func:`encode_ml_state` /
:func:`decode_ml_state`, runs its hot loop on mask tuples, and decodes at
the end.

:func:`apply_ml_move_bits` is the package's one transcription of the
multi-level rules and prices: :meth:`MultilevelSimulator.run
<repro.multilevel.game.MultilevelSimulator.run>` and ``step`` both run on
it, and :func:`repro.solvers.multilevel.solve_multilevel_optimal`
searches the same game through its own delete-normalized expander.  The
differential suite (``tests/multilevel/test_bitgame_differential.py``)
checks every accept, reject, error message, cost and resulting state
against a frozenset transcription of the rules kept in the tests, on
hypothesis-generated DAGs, hierarchies and move walks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from ..core.bitstate import BitLayout
from ..core.errors import IllegalMoveError
from .game import HierarchySpec, MLCompute, MLDelete, MLMove, MultilevelState

__all__ = [
    "MLBitState",
    "initial_ml_state",
    "encode_ml_state",
    "decode_ml_state",
    "apply_ml_move_bits",
]

#: a multi-level board: one bitmask per memory level, fastest first.
#: The masks are pairwise disjoint (a value occupies at most one level).
MLBitState = Tuple[int, ...]


def initial_ml_state(n_levels: int) -> MLBitState:
    """The empty board for an ``n_levels``-deep hierarchy."""
    return (0,) * n_levels


def encode_ml_state(layout: BitLayout, state: MultilevelState) -> MLBitState:
    """Encode a :class:`MultilevelState` as per-level masks."""
    return tuple(layout.encode_set(s) for s in state.levels)


def decode_ml_state(layout: BitLayout, masks: MLBitState) -> MultilevelState:
    """Decode per-level masks back to a :class:`MultilevelState`."""
    return MultilevelState([layout.decode_set(m) for m in masks])


def _level_of(masks: MLBitState, bit: int) -> "int | None":
    for i, m in enumerate(masks):
        if m & bit:
            return i
    return None


def apply_ml_move_bits(
    layout: BitLayout,
    spec: HierarchySpec,
    masks: MLBitState,
    move,
) -> Tuple[MLBitState, Fraction]:
    """Apply one multi-level move to ``masks``; return ``(new_masks, cost)``.

    Raises :class:`~repro.core.errors.IllegalMoveError` when the move
    breaks the rules of :mod:`repro.multilevel.game`: a Compute needs
    its node in the DAG and not in level 0, every input in level 0 and a
    free level-0 slot; a Move needs a pebble on the node, an existing
    target level adjacent to the pebble's and a free slot there; a
    Delete needs a pebble on the node.
    """
    if isinstance(move, MLCompute):
        v = move.node
        bit_index = layout.index.get(v)
        if bit_index is None:
            raise IllegalMoveError(move, "node not in DAG")
        bit = 1 << bit_index
        level0 = masks[0]
        if level0 & bit:
            raise IllegalMoveError(move, "node already in fastest memory")
        if layout.parent_masks[bit_index] & ~level0:
            missing = [
                u
                for u in layout.dag.predecessors(v)
                if not level0 >> layout.index[u] & 1
            ]
            raise IllegalMoveError(
                move, f"inputs not in fastest memory: {missing[:3]!r}"
            )
        cap = spec.capacities[0]
        if cap is not None and level0.bit_count() + 1 > cap:
            raise IllegalMoveError(move, f"level 0 capacity {cap} exceeded")
        # computing pulls any existing pebble on v out of its level
        new = [m & ~bit for m in masks]
        new[0] = level0 | bit
        return tuple(new), spec.compute_cost

    if isinstance(move, MLMove):
        v = move.node
        bit_index = layout.index.get(v)
        cur = _level_of(masks, 1 << bit_index) if bit_index is not None else None
        if cur is None:
            raise IllegalMoveError(move, "node holds no pebble")
        bit = 1 << bit_index
        to = move.to_level
        if not (0 <= to < spec.levels):
            raise IllegalMoveError(move, f"no such level {to}")
        if abs(to - cur) != 1:
            raise IllegalMoveError(move, f"levels {cur} -> {to} are not adjacent")
        cap = spec.capacities[to]
        if cap is not None and masks[to].bit_count() + 1 > cap:
            raise IllegalMoveError(move, f"level {to} capacity {cap} exceeded")
        new = list(masks)
        new[cur] ^= bit
        new[to] |= bit
        return tuple(new), spec.transfer_costs[min(cur, to)]

    if isinstance(move, MLDelete):
        v = move.node
        bit_index = layout.index.get(v)
        cur = _level_of(masks, 1 << bit_index) if bit_index is not None else None
        if cur is None:
            raise IllegalMoveError(move, "node holds no pebble")
        new = list(masks)
        new[cur] ^= 1 << bit_index
        return tuple(new), Fraction(0)

    raise IllegalMoveError(move, f"unknown move {type(move).__name__}")
