"""The frozenset rule sets and uniform-cost search, kept as a test oracle.

This is the straightforward transcription of Section 1's four moves and
Table 1's prices onto :class:`~repro.core.state.PebblingState` node
sets, and a uniform-cost search over it that shares no code with the
bitmask kernels; and the same transcription of the multi-level rules
onto the per-level node sets of
:class:`~repro.multilevel.game.MultilevelState`.  The package does not
use them; tests compare against them:

* the golden optima (``tests/solvers/test_golden_optima.py``) and the
  multi-level equivalence check are re-certified by
  :func:`solve_optimal_legacy`;
* ``tests/solvers/test_engine_differential.py`` locks the ``bits``
  engine to it on random DAGs, outside the delete- and store-normalized
  move alphabet the engines share;
* ``tests/core/test_bitstate_differential.py`` checks
  :func:`repro.core.bitstate.apply_move_bits` against :func:`apply_move`
  move by move;
* ``tests/multilevel/test_bitgame_differential.py`` checks
  :func:`repro.multilevel.bitgame.apply_ml_move_bits` against
  :func:`apply_ml_move` move by move;
* ``tests/benchmarks/test_perf.py`` times the ``bits`` engine against
  :func:`solve_optimal_legacy`.

It also keeps the node-level pebbler: :class:`OnlinePebbler` with its
per-candidate cost tiers, the :class:`EvictionContext` policies that rank
nodes on ``(rank, repr(v))``, and :func:`fixed_order_schedule` with its
``next_use`` closure.  ``tests/heuristics/test_pebbler_differential.py``
requires the package's mask pebbler to emit the same schedule move for
move, under every policy, for fixed orders, greedy orders and beam
winners.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.core.bitstate import BitLayout, bit_layout, iter_bits
from repro.core.dag import ComputationDAG, Node
from repro.core.errors import (
    BudgetExceededError,
    CapacityExceededError,
    DeletionForbiddenError,
    IllegalMoveError,
    RecomputationError,
    SolverError,
)
from repro.core.instance import PebblingInstance
from repro.core.models import CostModel, Model
from repro.core.moves import Compute, Delete, Load, Move, Store
from repro.core.schedule import Schedule
from repro.core.state import PebblingState
from repro.multilevel.game import (
    HierarchySpec,
    MLCompute,
    MLDelete,
    MLMove,
    MultilevelState,
)
from repro.heuristics.pebbler import PebblerError
from repro.solvers.exact import OptimalResult

__all__ = [
    "EvictionContext",
    "EvictionPolicy",
    "FurthestNextUse",
    "LeastRecentlyUsed",
    "MinRemainingUses",
    "OnlinePebbler",
    "RandomEviction",
    "apply_ml_move",
    "apply_move",
    "fixed_order_schedule",
    "legal_moves",
    "solve_optimal_legacy",
]


def apply_move(
    state: PebblingState,
    move: Move,
    dag: ComputationDAG,
    costs: CostModel,
    red_limit: int,
    step: "int | None" = None,
) -> Tuple[PebblingState, Fraction]:
    """Apply one move to a state, returning ``(new_state, cost)``.

    Raises a subclass of :class:`IllegalMoveError` when the move violates
    the rules of the model described by ``costs``:

    * Load needs a blue pebble on the node and a free red slot;
    * Store needs a red pebble on the node;
    * Compute needs every input red, a free red slot, the node not already
      red, and (oneshot) the node never computed before;
    * Delete needs a pebble on the node and is illegal in nodel.
    """
    v = move.node
    if v not in dag:
        raise IllegalMoveError(move, f"node {v!r} is not in the DAG", step)

    if isinstance(move, Load):
        if v not in state.blue:
            raise IllegalMoveError(move, "node holds no blue pebble", step)
        if len(state.red) + 1 > red_limit:
            raise CapacityExceededError(move, red_limit, step)
        return (
            PebblingState(state.red | {v}, state.blue - {v}, state.computed),
            costs.load_cost,
        )

    if isinstance(move, Store):
        if v not in state.red:
            raise IllegalMoveError(move, "node holds no red pebble", step)
        return (
            PebblingState(state.red - {v}, state.blue | {v}, state.computed),
            costs.store_cost,
        )

    if isinstance(move, Compute):
        if v in state.red:
            raise IllegalMoveError(move, "node already holds a red pebble", step)
        if not costs.recompute_allowed and v in state.computed:
            raise RecomputationError(move, step)
        missing = [u for u in dag.predecessors(v) if u not in state.red]
        if missing:
            raise IllegalMoveError(
                move, f"input(s) without a red pebble: {missing[:5]!r}", step
            )
        if len(state.red) + 1 > red_limit:
            raise CapacityExceededError(move, red_limit, step)
        # Computing onto a node that currently holds a blue pebble replaces
        # the blue pebble by a red one (explicitly allowed in nodel:
        # "Step 3 still allows us to replace a blue pebble by a red one").
        return (
            PebblingState(state.red | {v}, state.blue - {v}, state.computed | {v}),
            costs.compute_cost,
        )

    if isinstance(move, Delete):
        if not costs.delete_allowed:
            raise DeletionForbiddenError(move, step)
        if v in state.red:
            return (
                PebblingState(state.red - {v}, state.blue, state.computed),
                costs.delete_cost,
            )
        if v in state.blue:
            return (
                PebblingState(state.red, state.blue - {v}, state.computed),
                costs.delete_cost,
            )
        raise IllegalMoveError(move, "node holds no pebble", step)

    raise IllegalMoveError(move, f"unknown move type {type(move).__name__}", step)


def legal_moves(
    state: PebblingState,
    dag: ComputationDAG,
    costs: CostModel,
    red_limit: int,
    *,
    prune_delete_blue: bool = True,
) -> Iterator[Move]:
    """Enumerate every move legal in ``state``.

    ``prune_delete_blue`` skips deleting blue pebbles: a blue pebble never
    occupies a red slot and never blocks any move, so removing it cannot
    reduce the cost of any continuation — any schedule using Delete(blue)
    maps move-for-move to one that omits it at equal cost.  Exact solvers
    rely on this cost-preserving prune; set it to ``False`` to enumerate
    the literal rule set.
    """
    has_red_slot = len(state.red) < red_limit

    if has_red_slot:
        for v in state.blue:
            yield Load(v)

    for v in state.red:
        yield Store(v)

    if has_red_slot:
        for v in dag:
            if v in state.red:
                continue
            if not costs.recompute_allowed and v in state.computed:
                continue
            if all(u in state.red for u in dag.predecessors(v)):
                yield Compute(v)

    if costs.delete_allowed:
        for v in state.red:
            yield Delete(v)
        if not prune_delete_blue:
            for v in state.blue:
                yield Delete(v)


def solve_optimal_legacy(
    instance: PebblingInstance,
    *,
    budget: int = 2_000_000,
    return_schedule: bool = True,
) -> OptimalResult:
    """The original frozenset-based search, kept as the reference oracle.

    Uniform-cost search under the contract of
    :func:`repro.solvers.solve_optimal`; states print as readable node
    sets.
    """
    dag: ComputationDAG = instance.dag
    costs = instance.costs
    red_limit = instance.red_limit
    start = PebblingState.initial()

    if start.is_complete(dag):  # DAG with no sinks (empty DAG)
        return OptimalResult(Fraction(0), Schedule(), 0, 0)

    counter = itertools.count()
    frontier: List[Tuple[Fraction, int, PebblingState]] = [
        (Fraction(0), next(counter), start)
    ]
    best_g: Dict[PebblingState, Fraction] = {start: Fraction(0)}
    parents: Dict[PebblingState, Tuple[PebblingState, Move]] = {}
    closed = set()
    expanded = 0
    generated = 0

    while frontier:
        _, _, state = heapq.heappop(frontier)
        if state in closed:
            continue
        closed.add(state)
        g = best_g[state]

        if state.is_complete(dag):
            schedule = _reconstruct(parents, state) if return_schedule else None
            return OptimalResult(g, schedule, expanded, generated)

        expanded += 1
        if expanded > budget:
            raise BudgetExceededError(budget)

        for move in legal_moves(state, dag, costs, red_limit):
            nxt, cost = apply_move(state, move, dag, costs, red_limit)
            if nxt in closed:
                continue
            ng = g + cost
            if nxt not in best_g or ng < best_g[nxt]:
                best_g[nxt] = ng
                if return_schedule:
                    parents[nxt] = (state, move)
                heapq.heappush(frontier, (ng, next(counter), nxt))
                generated += 1

    raise SolverError(
        "search space exhausted without reaching a complete state "
        "(this should be impossible for a feasible instance)"
    )


def _reconstruct(
    parents: Dict[PebblingState, Tuple[PebblingState, Move]],
    goal: PebblingState,
) -> Schedule:
    moves: List[Move] = []
    state = goal
    while state in parents:
        state, move = parents[state]
        moves.append(move)
    moves.reverse()
    return Schedule(moves)


# ---------------------------------------------------------------------- #
# the multi-level game
# ---------------------------------------------------------------------- #


def _replace(
    state: MultilevelState, level: int, new: FrozenSet[Node]
) -> MultilevelState:
    parts = list(state.levels)
    parts[level] = new
    return MultilevelState(parts)


def apply_ml_move(
    state: MultilevelState, move, dag: ComputationDAG, spec: HierarchySpec
) -> Tuple[MultilevelState, Fraction]:
    """Apply one multi-level move to a state, returning ``(new_state, cost)``.

    Raises :class:`IllegalMoveError` with the same messages as
    :func:`repro.multilevel.bitgame.apply_ml_move_bits`.
    """
    if isinstance(move, MLCompute):
        v = move.node
        if v not in dag:
            raise IllegalMoveError(move, "node not in DAG")
        if v in state.levels[0]:
            raise IllegalMoveError(move, "node already in fastest memory")
        missing = [
            u for u in dag.predecessors(v) if u not in state.levels[0]
        ]
        if missing:
            raise IllegalMoveError(
                move, f"inputs not in fastest memory: {missing[:3]!r}"
            )
        cap = spec.capacities[0]
        if cap is not None and len(state.levels[0]) + 1 > cap:
            raise IllegalMoveError(move, f"level 0 capacity {cap} exceeded")
        new = state
        old_level = state.level_of(v)
        if old_level is not None:
            new = _replace(new, old_level, new.levels[old_level] - {v})
        new = _replace(new, 0, new.levels[0] | {v})
        return new, spec.compute_cost

    if isinstance(move, MLMove):
        v = move.node
        cur = state.level_of(v)
        if cur is None:
            raise IllegalMoveError(move, "node holds no pebble")
        to = move.to_level
        if not (0 <= to < spec.levels):
            raise IllegalMoveError(move, f"no such level {to}")
        if abs(to - cur) != 1:
            raise IllegalMoveError(
                move, f"levels {cur} -> {to} are not adjacent"
            )
        cap = spec.capacities[to]
        if cap is not None and len(state.levels[to]) + 1 > cap:
            raise IllegalMoveError(move, f"level {to} capacity {cap} exceeded")
        new = _replace(state, cur, state.levels[cur] - {v})
        new = _replace(new, to, new.levels[to] | {v})
        return new, spec.transfer_costs[min(cur, to)]

    if isinstance(move, MLDelete):
        v = move.node
        cur = state.level_of(v)
        if cur is None:
            raise IllegalMoveError(move, "node holds no pebble")
        return _replace(state, cur, state.levels[cur] - {v}), Fraction(0)

    raise IllegalMoveError(move, f"unknown move {type(move).__name__}")


# ---------------------------------------------------------------------- #
# the node-level pebbler and its eviction policies
# ---------------------------------------------------------------------- #


_INF = float("inf")


@dataclass(frozen=True)
class EvictionContext:
    """What a policy may look at when choosing a victim.

    Attributes
    ----------
    remaining_uses:
        ``f(v)`` -> number of consumers of v not yet computed.
    next_use:
        ``f(v)`` -> position (in the pebbler's order) of v's next use, or
        None when v is never used again.  Exact for fixed orders.
    last_used:
        ``f(v)`` -> step index when v was last read (for LRU).
    step:
        Current step index.
    """

    remaining_uses: Callable[[Node], int]
    next_use: Callable[[Node], Optional[int]]
    last_used: Callable[[Node], int]
    step: int


class EvictionPolicy:
    """Base class: rank candidates, evict the maximum-rank one."""

    name = "abstract"

    def choose_victim(
        self, candidates: Sequence[Node], ctx: EvictionContext
    ) -> Node:
        if not candidates:
            raise ValueError("no eviction candidates")
        return max(candidates, key=lambda v: (self.rank(v, ctx), repr(v)))

    def rank(self, v: Node, ctx: EvictionContext):  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}()"


class FurthestNextUse(EvictionPolicy):
    """Belady's rule: evict the pebble whose next use is furthest away
    (never-used-again pebbles rank highest).  Optimal for a fixed
    computation order when every re-acquisition costs the same."""

    name = "belady"

    def rank(self, v: Node, ctx: EvictionContext):
        nu = ctx.next_use(v)
        return _INF if nu is None else nu


class MinRemainingUses(EvictionPolicy):
    """Evict the pebble with the fewest uncomputed consumers left.

    The natural online surrogate for Belady when the future order is
    unknown (greedy pebbling)."""

    name = "min-uses"

    def rank(self, v: Node, ctx: EvictionContext):
        return -ctx.remaining_uses(v)


class LeastRecentlyUsed(EvictionPolicy):
    """Evict the pebble not read for the longest time (classic LRU)."""

    name = "lru"

    def rank(self, v: Node, ctx: EvictionContext):
        return ctx.step - ctx.last_used(v)


class RandomEviction(EvictionPolicy):
    """Uniformly random victim from a seeded stream (ablation baseline)."""

    name = "random"

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def choose_victim(self, candidates: Sequence[Node], ctx: EvictionContext) -> Node:
        if not candidates:
            raise ValueError("no eviction candidates")
        ordered = sorted(candidates, key=repr)
        return ordered[self._rng.randrange(len(ordered))]

    def rank(self, v: Node, ctx: EvictionContext):  # pragma: no cover
        return 0


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
            f"live non-recomputable values — this is an internal bug"
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
