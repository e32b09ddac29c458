"""The online pebbler: turns a computation order into a legal schedule.

Pebbling = deciding (a) the order in which nodes are (first) computed and
(b) which red pebbles to evict when slots run out.  This module implements
the executor that handles (b) plus all model-specific bookkeeping, given
(a) from either a fixed order (:func:`fixed_order_schedule`) or an online
node selector (the greedy rules of :mod:`repro.heuristics.greedy`).

The board lives natively on the bitmask encoding of
:mod:`repro.core.bitstate`: ``red``/``blue``/``computed`` are three ints,
readiness tests are mask comparisons, and :meth:`OnlinePebbler.clone`
(the hot operation of beam search) copies ints and three per-bit lists.
The node-level views (:attr:`OnlinePebbler.red` and friends) decode on
demand for callers and debuggers.

Model-aware rules (derived from Table 1, validated against the simulator):

* acquiring a non-red input: Load if blue (all models); recompute instead
  when the model allows it and the input is a source (free / epsilon),
  which is cheaper than the Load;
* evicting a red pebble: Delete when the value is dead or re-creatable
  for free, Store when it will be needed again and cannot be recomputed,
  always Store in nodel;
* eviction victims are picked in *cost tiers* (free victims first), with
  the configured :class:`~repro.heuristics.eviction.EvictionPolicy`
  breaking ties inside a tier.

The tiers are masks.  ``dead`` holds the values with no uncomputed
consumer (sinks from the start) and ``free`` the sources when the model
allows recomputation.  Outside nodel the cheapest tier is the dead or
free non-sinks (a Delete now, at most a recompute later), then the sinks
(one Store), then the rest (a Store now and a Load later); in nodel, where
every eviction is a Store, it is the dead or free values, then the rest.
A policy sees the tier's bit indices and the pebbler's per-bit lists (see
:mod:`repro.heuristics.eviction`).

The pebbler maintains the invariant that every computed value that is
still needed keeps a pebble (red or blue), so oneshot never loses a value
it cannot recompute, and completed sinks always stay pebbled.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Optional, Sequence

from ..core.bitstate import BitLayout, bit_layout, iter_bits
from ..core.dag import ComputationDAG, Node
from ..core.errors import PebblingError
from ..core.instance import PebblingInstance
from ..core.models import Model
from ..core.moves import Compute, Delete, Load, Move, Store
from ..core.schedule import Schedule
from .eviction import EvictionPolicy, FurthestNextUse, MinRemainingUses

__all__ = ["OnlinePebbler", "PebblerError", "fixed_order_schedule"]


class PebblerError(PebblingError):
    """The pebbler reached a state it cannot proceed from."""


class OnlinePebbler:
    """Incremental pebbling executor.

    Drive it by calling :meth:`compute_next` with successive nodes (each
    exactly once, in an order where every node's inputs come before it);
    read the produced moves from :attr:`moves`.

    Parameters
    ----------
    instance:
        The pebbling problem (any model).
    eviction:
        Tie-breaking policy inside an eviction cost tier.
    """

    def __init__(
        self,
        instance: PebblingInstance,
        eviction: Optional[EvictionPolicy] = None,
    ):
        self.instance = instance
        self.dag: ComputationDAG = instance.dag
        self.model: Model = instance.model
        self._nodel = instance.model is Model.NODEL
        self.red_limit = instance.red_limit
        self.eviction = eviction if eviction is not None else MinRemainingUses()

        layout = bit_layout(instance.dag)
        self._layout: BitLayout = layout
        self.moves: List[Move] = []
        # bitmask board (bit index == topological position, see BitLayout)
        self._red = 0
        self._blue = 0
        self._computed = 0
        # per bit: uncomputed consumers, and the move count at the last
        # read or compute (-1: never)
        self._remaining: List[int] = [succ.bit_count() for succ in layout.succ_masks]
        self._last_used: List[int] = [-1] * layout.n
        # the eviction tiers' masks: values no consumer needs any more,
        # and values re-creatable without a Load
        self._dead = layout.sink_mask
        self._free = layout.source_mask if instance.costs.recompute_allowed else 0
        # a fixed order's position of each node (set by
        # fixed_order_schedule; None when the order is online), and per
        # bit its consumers' positions in that order, ascending (built on
        # the first _next_use, which only FurthestNextUse calls)
        self._position: Optional[Dict[Node, int]] = None
        self._uses: Optional[List[List[int]]] = None

    # ------------------------------------------------------------------ #
    # cloning (used by beam search)
    # ------------------------------------------------------------------ #

    def clone(self) -> "OnlinePebbler":
        """An independent copy sharing the immutable instance/DAG but with
        its own mutable board, move log and eviction state."""
        twin = OnlinePebbler.__new__(OnlinePebbler)
        twin.__dict__.update(self.__dict__)
        twin.eviction = self.eviction.fork()
        twin.moves = list(self.moves)
        twin._remaining = list(self._remaining)
        twin._last_used = list(self._last_used)
        return twin

    # ------------------------------------------------------------------ #
    # board views
    # ------------------------------------------------------------------ #

    @property
    def red(self) -> FrozenSet[Node]:
        """Nodes currently holding a red pebble (decoded view)."""
        return self._layout.decode_set(self._red)

    @property
    def blue(self) -> FrozenSet[Node]:
        """Nodes currently holding a blue pebble (decoded view)."""
        return self._layout.decode_set(self._blue)

    @property
    def computed(self) -> FrozenSet[Node]:
        """Nodes computed at least once (decoded view)."""
        return self._layout.decode_set(self._computed)

    @property
    def red_mask(self) -> int:
        return self._red

    @property
    def blue_mask(self) -> int:
        return self._blue

    @property
    def computed_mask(self) -> int:
        return self._computed

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def ready_nodes(self) -> List[Node]:
        """Uncomputed nodes whose inputs have all been computed — the
        candidates of beam search (the greedy rules keep the same set as
        a mask, updated per compute)."""
        layout = self._layout
        computed = self._computed
        parent_masks = layout.parent_masks
        nodes = layout.nodes
        return [
            nodes[i]
            for i in iter_bits(layout.full_mask & ~computed)
            if parent_masks[i] & ~computed == 0
        ]

    def schedule(self) -> Schedule:
        return Schedule(self.moves)

    def is_complete(self) -> bool:
        return self._layout.sink_mask & ~(self._red | self._blue) == 0

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _next_use(self, i: int) -> float:
        """Position of bit ``i``'s next use, infinite when it has none: in
        the fixed order when one is set, else the earliest uncomputed
        consumer (bit index == topological position: its lowest bit)."""
        left = self._remaining[i]
        if not left:
            return math.inf
        position = self._position
        if position is not None:
            if self._uses is None:
                nodes = self._layout.nodes
                self._uses = [
                    sorted(position[nodes[j]] for j in iter_bits(succ))
                    for succ in self._layout.succ_masks
                ]
            # a fixed order computes i's consumers by position, so the
            # uncomputed ones are the last `left`
            return self._uses[i][-left]
        pending = self._layout.succ_masks[i] & ~self._computed
        return (pending & -pending).bit_length() - 1

    def _evict_one(self, pinned_mask: int) -> None:
        candidates = self._red & ~pinned_mask
        if not candidates:
            raise PebblerError(
                f"cannot free a red slot: all {self._red.bit_count()} red pebbles "
                f"are pinned (R={self.red_limit} too small for this step?)"
            )
        # the cheapest non-empty cost tier (sinks are dead from the start)
        cheap = candidates & (self._dead | self._free)
        if self._nodel:
            pool = cheap or candidates
        else:
            sinks = self._layout.sink_mask
            pool = cheap & ~sinks or candidates & sinks or candidates
        if pool & (pool - 1):
            victim = self.eviction.choose(list(iter_bits(pool)), self)
        else:
            victim = pool.bit_length() - 1
        self._dispose(victim)

    def _dispose(self, i: int) -> None:
        """Remove the red pebble from bit ``i`` in the cheapest legal way:
        outside nodel, Delete a dead or free-recomputable non-sink (the
        cheapest tier); Store anything else."""
        bit = 1 << i
        node = self._layout.nodes[i]
        self._red &= ~bit
        if not self._nodel and bit & (self._dead | self._free) & ~self._layout.sink_mask:
            self.moves.append(Delete(node))
        else:
            # sinks keep their pebble unconditionally: even a recomputable
            # source sink would otherwise end the pebbling unpebbled
            self.moves.append(Store(node))
            self._blue |= bit

    def _ensure_slot(self, pinned_mask: int) -> None:
        while self._red.bit_count() >= self.red_limit:
            self._evict_one(pinned_mask)

    def _acquire_input(self, i: int, pinned_mask: int) -> None:
        """Make input bit ``i`` red.  Its node has been computed before."""
        bit = 1 << i
        if self._red & bit:
            return
        self._ensure_slot(pinned_mask)
        p = self._layout.nodes[i]
        if self._blue & bit:
            # recomputing beats loading only for free-recomputable sources
            self.moves.append(Compute(p) if self._free & bit else Load(p))
            self._blue &= ~bit
        elif self._free & bit:
            # no pebble anywhere: only legal if p is recomputable from nothing
            self.moves.append(Compute(p))
        else:
            raise PebblerError(
                f"input {p!r} has no pebble and cannot be recomputed "
                f"(model={self.model.value}); the pebbler should never discard "
                f"live non-recomputable values — this is an internal bug"
            )
        self._red |= bit

    # ------------------------------------------------------------------ #
    # driving
    # ------------------------------------------------------------------ #

    def compute_next(self, v: Node) -> None:
        """Compute node ``v`` (first computation), emitting all the loads,
        evictions and the Compute itself."""
        layout = self._layout
        vi = layout.index.get(v)
        if vi is None:
            raise PebblerError(f"{v!r} is not a node of the DAG")
        vbit = 1 << vi
        if self._computed & vbit:
            raise PebblerError(f"{v!r} was already computed")
        parent_mask = layout.parent_masks[vi]
        missing_mask = parent_mask & ~self._computed
        if missing_mask:
            missing = [layout.nodes[i] for i in iter_bits(missing_mask)]
            raise PebblerError(f"inputs of {v!r} not yet computed: {missing[:4]!r}")

        pinned_mask = parent_mask | vbit
        if pinned_mask.bit_count() > self.red_limit:
            raise PebblerError(
                f"{v!r} needs {pinned_mask.bit_count()} red pebbles "
                f"but R={self.red_limit}"
            )
        moves = self.moves
        last_used = self._last_used
        parents = list(iter_bits(parent_mask))
        if len(parents) > 1:  # acquired in the inputs' repr order
            parents.sort(key=layout.repr_rank.__getitem__)
        for i in parents:
            self._acquire_input(i, pinned_mask)
            last_used[i] = len(moves)
        self._ensure_slot(pinned_mask)
        moves.append(Compute(v))
        self._blue &= ~vbit
        self._red |= vbit
        self._computed |= vbit
        last_used[vi] = len(moves)
        remaining = self._remaining
        for i in parents:
            remaining[i] -= 1
            if not remaining[i]:
                self._dead |= 1 << i

    def run_order(self, order: Sequence[Node]) -> Schedule:
        """Compute every node of ``order`` in sequence and return the moves."""
        for v in order:
            self.compute_next(v)
        if not self.is_complete():  # pragma: no cover - defensive
            pending = self._layout.sink_mask & ~(self._red | self._blue)
            missing = [self._layout.nodes[i] for i in iter_bits(pending)]
            raise PebblerError(f"order left sinks unpebbled: {missing[:4]!r}")
        return self.schedule()


def fixed_order_schedule(
    instance: PebblingInstance,
    order: Optional[Sequence[Node]] = None,
    eviction: Optional[EvictionPolicy] = None,
) -> Schedule:
    """Pebble the DAG computing nodes in ``order`` (default: the DAG's
    topological order) with exact Belady next-use information.

    With the default :class:`FurthestNextUse` policy this is the classic
    offline-caching solution of the eviction subproblem for the given
    order (optimal for uniform re-acquisition costs).
    """
    dag = instance.dag
    order = list(order) if order is not None else list(dag.topological_order())
    position = {v: i for i, v in enumerate(order)}
    missing = [v for v in dag if v not in position]
    if missing:
        raise ValueError(f"order misses nodes: {missing[:4]!r}")

    pebbler = OnlinePebbler(
        instance,
        eviction=eviction if eviction is not None else FurthestNextUse(),
    )
    pebbler._position = position
    for v in order:
        pebbler.compute_next(v)
    return pebbler.schedule()
