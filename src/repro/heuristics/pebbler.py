"""The online pebbler: turns a computation order into a legal schedule.

Pebbling = deciding (a) the order in which nodes are (first) computed and
(b) which red pebbles to evict when slots run out.  This module implements
the executor that handles (b) plus all model-specific bookkeeping, given
(a) from either a fixed order (:func:`fixed_order_schedule`) or an online
node selector (the greedy rules of :mod:`repro.heuristics.greedy`).

The board lives natively on the bitmask encoding of
:mod:`repro.core.bitstate`: ``red``/``blue``/``computed`` are three ints,
readiness tests are mask comparisons, and :meth:`OnlinePebbler.clone`
(the hot operation of beam search) copies ints instead of sets.  The
node-level views (:attr:`OnlinePebbler.red` and friends) decode on demand
for callers and debuggers; eviction policies keep their node-level
:class:`EvictionContext` interface unchanged.

Model-aware rules (derived from Table 1, validated against the simulator):

* acquiring a non-red input: Load if blue (all models); recompute instead
  when the model allows it and the input is a source (free / epsilon),
  which is cheaper than the Load;
* evicting a red pebble: Delete when the value is dead or re-creatable
  for free, Store when it will be needed again and cannot be recomputed,
  always Store in nodel;
* eviction victims are picked in *cost tiers* (free victims first), with
  the configured :class:`EvictionPolicy` breaking ties inside a tier.

The pebbler maintains the invariant that every computed value that is
still needed keeps a pebble (red or blue), so oneshot never loses a value
it cannot recompute, and completed sinks always stay pebbled.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Sequence

from ..core.bitstate import BitLayout, bit_layout, iter_bits
from ..core.dag import ComputationDAG, Node
from ..core.errors import PebblingError
from ..core.instance import PebblingInstance
from ..core.models import Model
from ..core.moves import Compute, Delete, Load, Move, Store
from ..core.schedule import Schedule
from .eviction import EvictionContext, EvictionPolicy, FurthestNextUse, MinRemainingUses

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
    next_use_fn:
        Optional exact next-use oracle ``f(node) -> position | None`` used
        by Belady-style policies (supplied by :func:`fixed_order_schedule`).
    """

    def __init__(
        self,
        instance: PebblingInstance,
        eviction: Optional[EvictionPolicy] = None,
        next_use_fn: Optional[Callable[[Node], Optional[int]]] = None,
    ):
        self.instance = instance
        self.dag: ComputationDAG = instance.dag
        self.model: Model = instance.model
        self.red_limit = instance.red_limit
        self.eviction = eviction if eviction is not None else MinRemainingUses()
        self._next_use_fn = next_use_fn

        layout = bit_layout(instance.dag)
        self._layout: BitLayout = layout
        self.moves: List[Move] = []
        # bitmask board (bit index == topological position, see BitLayout)
        self._red = 0
        self._blue = 0
        self._computed = 0
        # remaining uncomputed consumers, indexed by bit
        self._remaining: List[int] = [
            layout.succ_masks[i].bit_count() for i in range(layout.n)
        ]
        self.last_used: Dict[Node, int] = {}
        self.step = 0

    # ------------------------------------------------------------------ #
    # cloning (used by beam search)
    # ------------------------------------------------------------------ #

    def clone(self) -> "OnlinePebbler":
        """An independent copy sharing the immutable instance/DAG but with
        its own mutable board and move log."""
        twin = OnlinePebbler.__new__(OnlinePebbler)
        twin.instance = self.instance
        twin.dag = self.dag
        twin.model = self.model
        twin.red_limit = self.red_limit
        twin.eviction = self.eviction
        twin._next_use_fn = self._next_use_fn
        twin._layout = self._layout
        twin.moves = list(self.moves)
        twin._red = self._red
        twin._blue = self._blue
        twin._computed = self._computed
        twin._remaining = list(self._remaining)
        twin.last_used = dict(self.last_used)
        twin.step = self.step
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

    def _emit(self, move: Move) -> None:
        self.moves.append(move)
        self.step += 1

    def _recomputable_free(self, bit_index: int) -> bool:
        """Can the node be re-created later without a Load?  Only sources,
        and only in models that allow recomputation (free or epsilon)."""
        return (
            self.instance.costs.recompute_allowed
            and self._layout.parent_masks[bit_index] == 0
        )

    def _next_use(self, v: Node) -> Optional[int]:
        i = self._layout.index[v]
        if self._remaining[i] <= 0:
            return None
        if self._next_use_fn is not None:
            return self._next_use_fn(v)
        # online estimate: earliest (topological) uncomputed consumer;
        # bit index == topological position, so that is the lowest set bit
        pending = self._layout.succ_masks[i] & ~self._computed
        if not pending:
            return None
        return (pending & -pending).bit_length() - 1

    def _eviction_tier(self, i: int) -> int:
        """Smaller = cheaper to evict (``i`` is a bit index).

        Tier 0: dead non-sinks (Delete, free) and — when recomputation is
        allowed — live sources (Delete now, recompute later at <= epsilon).
        Tier 1: values needing exactly one transfer (dead sinks; everything
        in nodel where even dead values must be stored; live sources in
        nodel).  Tier 2: live values that will need a Store now and a Load
        later.
        """
        dead = self._remaining[i] <= 0
        is_sink = self._layout.succ_masks[i] == 0
        if self.model is Model.NODEL:
            # every eviction is a Store; live non-sources also pay a Load later
            if dead or self._recomputable_free(i):
                return 1
            return 2
        if dead:
            return 1 if is_sink else 0
        if self._recomputable_free(i) and not is_sink:
            return 0
        return 2

    def _evict_one(self, pinned_mask: int) -> None:
        candidate_mask = self._red & ~pinned_mask
        if not candidate_mask:
            raise PebblerError(
                f"cannot free a red slot: all {self._red.bit_count()} red pebbles "
                f"are pinned (R={self.red_limit} too small for this step?)"
            )
        tiers: Dict[int, List[int]] = {}
        for i in iter_bits(candidate_mask):
            tiers.setdefault(self._eviction_tier(i), []).append(i)
        tier = min(tiers)
        pool = tiers[tier]
        nodes = self._layout.nodes
        if len(pool) == 1:
            victim = nodes[pool[0]]
        else:
            remaining = self._remaining
            index = self._layout.index
            ctx = EvictionContext(
                remaining_uses=lambda v: remaining[index[v]],
                next_use=self._next_use,
                last_used=lambda v: self.last_used.get(v, -1),
                step=self.step,
            )
            victim = self.eviction.choose_victim([nodes[i] for i in pool], ctx)
        self._dispose(victim)

    def _dispose(self, victim: Node) -> None:
        """Remove the red pebble from ``victim`` in the cheapest legal way."""
        i = self._layout.index[victim]
        bit = 1 << i
        dead = self._remaining[i] <= 0
        is_sink = self._layout.succ_masks[i] == 0
        keep_value = (not dead) or is_sink
        self._red &= ~bit
        if self.model is Model.NODEL:
            self._emit(Store(victim))
            self._blue |= bit
        elif keep_value and (is_sink or not self._recomputable_free(i)):
            # sinks keep their pebble unconditionally: even a recomputable
            # source sink would otherwise end the pebbling unpebbled
            self._emit(Store(victim))
            self._blue |= bit
        else:
            self._emit(Delete(victim))

    def _ensure_slot(self, pinned_mask: int) -> None:
        while self._red.bit_count() >= self.red_limit:
            self._evict_one(pinned_mask)

    def _acquire_input(self, p: Node, pinned_mask: int) -> None:
        """Make input ``p`` red.  ``p`` has been computed before."""
        i = self._layout.index[p]
        bit = 1 << i
        if self._red & bit:
            return
        self._ensure_slot(pinned_mask)
        if self._blue & bit:
            # recomputing beats loading only for free-recomputable sources
            if self._recomputable_free(i):
                self._emit(Compute(p))
            else:
                self._emit(Load(p))
            self._blue &= ~bit
            self._red |= bit
            return
        # no pebble anywhere: only legal if p is recomputable from nothing
        if self._recomputable_free(i):
            self._emit(Compute(p))
            self._red |= bit
            return
        raise PebblerError(
            f"input {p!r} has no pebble and cannot be recomputed "
            f"(model={self.model.value}); the pebbler should never discard "
            f"live non-recomputable values — this is a driver bug"
        )

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
        preds = [layout.nodes[i] for i in iter_bits(parent_mask)]
        for p in sorted(preds, key=repr):
            self._acquire_input(p, pinned_mask)
            self.last_used[p] = self.step
        self._ensure_slot(pinned_mask)
        self._emit(Compute(v))
        self._blue &= ~vbit
        self._red |= vbit
        self._computed |= vbit
        self.last_used[v] = self.step
        remaining = self._remaining
        for i in iter_bits(parent_mask):
            remaining[i] -= 1

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

    # consumers of v, by their position in the order
    use_positions: Dict[Node, List[int]] = {
        v: sorted(position[w] for w in dag.successors(v)) for v in dag
    }
    cursor: Dict[Node, int] = {v: 0 for v in dag}
    clock = {"now": -1}

    def next_use(v: Node) -> Optional[int]:
        uses = use_positions[v]
        i = cursor[v]
        while i < len(uses) and uses[i] <= clock["now"]:
            i += 1
        cursor[v] = i
        return uses[i] if i < len(uses) else None

    pebbler = OnlinePebbler(
        instance,
        eviction=eviction if eviction is not None else FurthestNextUse(),
        next_use_fn=next_use,
    )
    for i, v in enumerate(order):
        clock["now"] = i
        pebbler.compute_next(v)
    return pebbler.schedule()
