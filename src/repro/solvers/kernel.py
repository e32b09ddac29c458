"""The shared bitmask search kernel behind every exact solver.

Before this module, :mod:`repro.solvers.exact`, :mod:`repro.solvers.idastar`
and the bound helpers each rolled their own frozenset-based best-first
search; every expansion allocated three frozensets and re-hashed them.
The kernel replaces all of that with one implementation operating on the
:mod:`repro.core.bitstate` encoding:

* a state is ``(red, blue, computed)`` — three ints — packed into a single
  integer key for the open/closed dictionaries;
* move costs are scaled to exact integers (by the LCM of the cost
  denominators), so priority-queue keys are plain ints, not Fractions;
* successor generation is inlined bit arithmetic: a node is computable iff
  ``parent_mask & ~red == 0``;
* *delete normalization*: in delete-allowed models, any schedule can be
  rewritten — at equal cost and preserved legality — so that every Delete
  happens at a full board, immediately before the Load/Compute that needs
  the freed slot (deletes commute right past moves that don't touch their
  node; a Delete(x) later answered by a recompute of x cancels against
  it; trailing deletes drop).  The kernel therefore searches over this
  normal form: standalone Delete edges disappear and full boards expand
  *fused* ``Delete(x); Load/Compute(v)`` successors instead.  This both
  shrinks the state graph and is what makes dominance sound;
* a *transposition table with dominance pruning*: a popped state is skipped
  when an already-settled state with the same blue and computed masks, a
  strict superset of its red pebbles, and no worse cost exists.

Dominance is cost-preserving in every model of the paper.  With equal
``blue`` and ``computed`` masks, a dominating state T ⊇ S mirrors any
normalized continuation of S move-for-move: while T carries surplus red
pebbles it is at capacity whenever S is, so where S plays a plain move T
plays the same move (or, at capacity, the fused variant deleting a
surplus pebble — free, since Delete costs 0 in every delete-allowed
model of Table 1), and the invariant "same blue, same computed, red
superset" is maintained to completion.  Equal computed masks mean the
oneshot restriction cannot distinguish the two continuations.  Crucially,
the mirrored continuation never passes through the dominated state
itself, so the pruning cannot sever its own justification.  In nodel,
pebbles are never removed, so ``(blue, computed)`` already determines
``red`` and the check degenerates to exact duplicate detection.  For
custom cost models with a nonzero delete price the pruning disables
itself (the mirrored continuation would pay extra deletes).

Two search strategies share the expander: :func:`astar_bits`
(uniform-cost / A*, the default engine of ``solve_optimal``) and
:func:`idastar_bits` (iterative-deepening, the structurally different
cross-check behind ``solve_optimal_idastar``).
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from ..core.bitstate import BitLayout, BitState, bit_layout, iter_bits
from ..core.errors import BudgetExceededError, SolverError
from ..core.instance import PebblingInstance
from ..core.moves import MOVE_KINDS, Delete, Move
from ..core.schedule import Schedule

__all__ = [
    "KernelResult",
    "Expander",
    "DominanceTable",
    "astar_bits",
    "idastar_bits",
    "register_bit_heuristic",
]

#: move-code kinds, aligned with Move.kind_id (load, store, compute, delete)
_LOAD, _STORE, _COMPUTE, _DELETE = 0, 1, 2, 3


class KernelResult(NamedTuple):
    """What a kernel search reports back to the solver front-ends.

    ``complete`` is False only for ``astar_bits(on_exhausted="bound")``
    results where the budget ran out: ``cost`` is then a lower bound on
    the optimum, not the optimum itself.
    """

    cost: Fraction
    moves: Optional[List[Move]]
    expanded: int
    generated: int
    complete: bool = True


class Expander:
    """Precomputed per-instance search context — the engine-agnostic seam.

    Every exact engine (the python A*/IDA* strategies here, the numpy
    batch engine of :mod:`repro.solvers.batch_kernel`) builds one of
    these and reads the same scaled integer costs, precomputed masks,
    normalized successor alphabet and move decoding from it, so "what
    the game is" is defined in exactly one place and the engines differ
    only in *how* they traverse it.
    """

    __slots__ = (
        "instance",
        "layout",
        "n",
        "red_limit",
        "scale",
        "load_i",
        "store_i",
        "compute_i",
        "delete_i",
        "recompute_allowed",
        "delete_allowed",
        "dominance_safe",
        "parent_masks",
        "full_mask",
        "sink_mask",
    )

    def __init__(self, instance: PebblingInstance) -> None:
        costs = instance.costs
        self.instance = instance
        self.layout = bit_layout(instance.dag)
        self.n = self.layout.n
        self.red_limit = instance.red_limit
        denoms = (
            costs.load_cost.denominator,
            costs.store_cost.denominator,
            costs.compute_cost.denominator,
            costs.delete_cost.denominator,
        )
        self.scale = math.lcm(*denoms)
        self.load_i = int(costs.load_cost * self.scale)
        self.store_i = int(costs.store_cost * self.scale)
        self.compute_i = int(costs.compute_cost * self.scale)
        self.delete_i = int(costs.delete_cost * self.scale)
        self.recompute_allowed = costs.recompute_allowed
        self.delete_allowed = costs.delete_allowed
        # red-superset dominance needs free deletes to shed surplus pebbles;
        # in nodel (blue, computed) determines red, so it is trivially safe.
        self.dominance_safe = (
            not costs.delete_allowed or costs.delete_cost == 0
        )
        self.parent_masks = self.layout.parent_masks
        self.full_mask = self.layout.full_mask
        self.sink_mask = self.layout.sink_mask

    def unscale(self, g: int) -> Fraction:
        return Fraction(g, self.scale)

    def is_goal(self, red: int, blue: int) -> bool:
        """Every sink carries a pebble of either colour."""
        return self.sink_mask & ~(red | blue) == 0

    def successors(
        self, red: int, blue: int, computed: int
    ) -> Iterator[Tuple[int, int, int, int, int]]:
        """Yield ``(nred, nblue, ncomputed, cost_i, move_code)`` per edge.

        Edges follow the delete-normalized move alphabet (see the module
        docstring): plain Load/Store/Compute moves below capacity, plus —
        at capacity, in delete-allowed models — fused ``Delete(x); move``
        successors.  ``move_code`` is ``kind * n + bit_index`` for a plain
        move and ``4n * (x + 1) + plain_code`` for a fused one (see
        :meth:`decode_moves`).
        """
        n = self.n
        has_slot = red.bit_count() < self.red_limit
        parent_masks = self.parent_masks
        load_i = self.load_i
        compute_i = self.compute_i
        if self.recompute_allowed:
            candidates = self.full_mask & ~red
        else:
            candidates = self.full_mask & ~computed

        if has_slot:
            m = blue
            while m:
                low = m & -m
                m ^= low
                yield (
                    red | low,
                    blue ^ low,
                    computed,
                    load_i,
                    _LOAD * n + low.bit_length() - 1,
                )
            m = candidates
            while m:
                low = m & -m
                m ^= low
                i = low.bit_length() - 1
                if parent_masks[i] & ~red == 0:
                    yield (
                        red | low,
                        blue & ~low,
                        computed | low,
                        compute_i,
                        _COMPUTE * n + i,
                    )
        elif self.delete_allowed:
            # full board: fused Delete(x); Load/Compute(v) successors
            fused = 4 * n
            del_load_i = self.delete_i + load_i
            del_compute_i = self.delete_i + compute_i
            mx = red
            while mx:
                lowx = mx & -mx
                mx ^= lowx
                x = lowx.bit_length() - 1
                base = fused * (x + 1)
                red_x = red ^ lowx
                m = blue
                while m:
                    low = m & -m
                    m ^= low
                    yield (
                        red_x | low,
                        blue ^ low,
                        computed,
                        del_load_i,
                        base + _LOAD * n + low.bit_length() - 1,
                    )
                m = candidates
                while m:
                    low = m & -m
                    m ^= low
                    i = low.bit_length() - 1
                    if parent_masks[i] & ~red_x == 0:
                        yield (
                            red_x | low,
                            blue & ~low,
                            computed | low,
                            del_compute_i,
                            base + _COMPUTE * n + i,
                        )

        store_i = self.store_i
        m = red
        while m:
            low = m & -m
            m ^= low
            yield (
                red ^ low,
                blue | low,
                computed,
                store_i,
                _STORE * n + low.bit_length() - 1,
            )

    def decode_moves(self, codes: List[int]) -> List[Move]:
        nodes = self.layout.nodes
        n = self.n
        fused = 4 * n
        moves: List[Move] = []
        for code in codes:
            if code >= fused:
                x, code = divmod(code, fused)
                moves.append(Delete(nodes[x - 1]))
            moves.append(MOVE_KINDS[code // n](nodes[code % n]))
        return moves


#: backwards-compatible private alias (pre-seam name)
_Expander = Expander


class DominanceTable:
    """Red-superset dominance bookkeeping, shared by every engine.

    States are bucketed by ``(blue << n) | computed``; a state is
    *dominated* — and should be pruned instead of expanded — when the
    bucket already holds an entry with a red superset at no worse cost.
    Soundness only needs the recorded ``(red, g)`` pairs to be
    *realizable* (some path reaches that state at that cost), which every
    engine guarantees by admitting states as it expands them; see the
    module docstring for the mirroring argument.
    """

    __slots__ = ("n", "_buckets")

    def __init__(self, n: int) -> None:
        self.n = n
        self._buckets: Dict[int, List[Tuple[int, int]]] = {}

    def admit(self, red: int, blue: int, computed: int, g: int) -> bool:
        """Record the state unless dominated; True means "expand it"."""
        bucket_key = (blue << self.n) | computed
        bucket = self._buckets.get(bucket_key)
        if bucket is None:
            self._buckets[bucket_key] = [(red, g)]
            return True
        for r2, g2 in bucket:
            if g2 <= g and red & ~r2 == 0:
                return False
        bucket.append((red, g))
        return True


# ---------------------------------------------------------------------- #
# heuristics
# ---------------------------------------------------------------------- #

#: compilers turning a PebblingState-level heuristic into a bit-native one;
#: populated via register_bit_heuristic (repro.solvers.exact registers the
#: compcost heuristic at import time).
_BIT_HEURISTICS: Dict[object, Callable[[Expander], Callable[[int, int, int], int]]] = {}


def register_bit_heuristic(
    heuristic: object,
    compiler: Callable[[Expander], Callable[[int, int, int], int]],
) -> None:
    """Register a bit-native compiler for a PebblingState-level heuristic.

    ``compiler(expander)`` must return ``h(red, blue, computed) -> int`` in
    the expander's *scaled* integer cost units.  Heuristics without a
    registered compiler still work: the kernel decodes each state and calls
    them on :class:`PebblingState` (exact, but slow — the scaled value is
    floored, which preserves admissibility and consistency because all
    edge costs are integral in scaled units).
    """
    _BIT_HEURISTICS[heuristic] = compiler


def _compile_heuristic(
    expander: Expander, heuristic: object
) -> Optional[Callable[[int, int, int], int]]:
    if heuristic is None:
        return None
    compiler = _BIT_HEURISTICS.get(heuristic)
    if compiler is not None:
        return compiler(expander)

    layout = expander.layout
    instance = expander.instance
    scale = expander.scale

    def h(red: int, blue: int, computed: int) -> int:
        state = layout.decode_state(BitState(red, blue, computed))
        value = Fraction(heuristic(state, instance)) * scale
        return value.numerator // value.denominator

    return h


# ---------------------------------------------------------------------- #
# A* / uniform-cost search
# ---------------------------------------------------------------------- #


def astar_bits(
    instance: PebblingInstance,
    *,
    budget: int = 2_000_000,
    return_schedule: bool = True,
    heuristic: object = None,
    dominance: bool = True,
    on_exhausted: str = "raise",
) -> KernelResult:
    """Optimal pebbling cost by best-first search over bitmask states.

    ``heuristic`` takes the public ``(PebblingState, instance)`` signature;
    registered heuristics run bit-natively (see
    :func:`register_bit_heuristic`).  ``on_exhausted`` controls behaviour
    when ``budget`` expansions are reached: ``"raise"`` (default) raises
    :class:`BudgetExceededError`; ``"bound"`` returns a *lower bound* on
    the optimum — the smallest f-value still open — as a partial
    :class:`KernelResult` with ``moves=None`` (used by
    :func:`repro.solvers.bounds.exhaustive_cost_bounds`).
    """
    ex = Expander(instance)
    n = ex.n
    shift2 = 2 * n

    start_red, start_blue, start_computed = 0, 0, 0
    if ex.sink_mask == 0:  # empty DAG (or no sinks): already complete
        return KernelResult(Fraction(0), [] if return_schedule else None, 0, 0)

    h = _compile_heuristic(ex, heuristic)
    h0 = h(start_red, start_blue, start_computed) if h else 0
    start_key = 0
    counter = itertools.count()
    # heap entries: (f, tiebreak, g, red, blue, computed)
    frontier: List[Tuple[int, int, int, int, int, int]] = [
        (h0, next(counter), 0, start_red, start_blue, start_computed)
    ]
    best_g: Dict[int, int] = {start_key: 0}
    parents: Dict[int, Tuple[int, int]] = {}
    closed = set()
    tt = DominanceTable(n)
    sink_mask = ex.sink_mask
    expanded = 0
    generated = 0
    use_dominance = dominance and ex.dominance_safe

    while frontier:
        f, _, g, red, blue, computed = heapq.heappop(frontier)
        key = (red << shift2) | (blue << n) | computed
        if key in closed:
            continue
        closed.add(key)

        if sink_mask & ~(red | blue) == 0:
            moves = None
            if return_schedule:
                codes = []
                k = key
                while k in parents:
                    k, code = parents[k]
                    codes.append(code)
                codes.reverse()
                moves = ex.decode_moves(codes)
            return KernelResult(ex.unscale(g), moves, expanded, generated)

        if use_dominance and not tt.admit(red, blue, computed, g):
            continue

        expanded += 1
        if expanded > budget:
            if on_exhausted == "bound":
                open_f = min((e[0] for e in frontier), default=f)
                return KernelResult(
                    ex.unscale(min(f, open_f)),
                    None,
                    expanded,
                    generated,
                    complete=False,
                )
            raise BudgetExceededError(budget)

        for nred, nblue, ncomputed, cost_i, code in ex.successors(
            red, blue, computed
        ):
            nkey = (nred << shift2) | (nblue << n) | ncomputed
            if nkey in closed:
                continue
            ng = g + cost_i
            old = best_g.get(nkey)
            if old is None or ng < old:
                best_g[nkey] = ng
                if return_schedule:
                    parents[nkey] = (key, code)
                nh = h(nred, nblue, ncomputed) if h else 0
                heapq.heappush(
                    frontier, (ng + nh, next(counter), ng, nred, nblue, ncomputed)
                )
                generated += 1

    raise SolverError(
        "search space exhausted without reaching a complete state "
        "(this should be impossible for a feasible instance)"
    )


# ---------------------------------------------------------------------- #
# iterative-deepening A*
# ---------------------------------------------------------------------- #


def idastar_bits(
    instance: PebblingInstance,
    *,
    budget: int = 4_000_000,
    return_schedule: bool = True,
    heuristic: object = None,
    max_iterations: int = 10_000,
) -> KernelResult:
    """Optimal pebbling by iterative threshold deepening over bitmask states.

    Structurally different from :func:`astar_bits` (bounded DFS sweeps with
    a per-iteration ``best_g`` memo instead of a global priority queue), so
    the two can cross-check each other; shares the expander, encoding and
    cost scaling.  Dominance pruning is not applied here — DFS g-values are
    not settled when first seen, so the table's premise does not hold.
    """
    ex = Expander(instance)
    n = ex.n
    shift2 = 2 * n

    if ex.sink_mask == 0:
        return KernelResult(Fraction(0), [] if return_schedule else None, 0, 0)

    h = _compile_heuristic(ex, heuristic)
    threshold = h(0, 0, 0) if h else 0
    sink_mask = ex.sink_mask
    expanded_total = 0
    generated_total = 0

    for _ in range(max_iterations):
        best_g: Dict[int, int] = {0: 0}
        parents: Dict[int, Tuple[int, int]] = {}
        next_threshold: Optional[int] = None
        # explicit stack: (red, blue, computed, g)
        stack: List[Tuple[int, int, int, int]] = [(0, 0, 0, 0)]
        goal: Optional[Tuple[int, int]] = None  # (key, g)

        while stack:
            red, blue, computed, g = stack.pop()
            key = (red << shift2) | (blue << n) | computed
            if g > best_g.get(key, g):
                continue  # a cheaper path to this state was found later
            if sink_mask & ~(red | blue) == 0:
                if goal is None or g < goal[1]:
                    goal = (key, g)
                continue
            expanded_total += 1
            if expanded_total > budget:
                raise BudgetExceededError(budget)
            for nred, nblue, ncomputed, cost_i, code in ex.successors(
                red, blue, computed
            ):
                ng = g + cost_i
                nh = h(nred, nblue, ncomputed) if h else 0
                f = ng + nh
                if f > threshold:
                    if next_threshold is None or f < next_threshold:
                        next_threshold = f
                    continue
                nkey = (nred << shift2) | (nblue << n) | ncomputed
                old = best_g.get(nkey)
                if old is not None and old <= ng:
                    continue
                best_g[nkey] = ng
                if return_schedule:
                    parents[nkey] = (key, code)
                generated_total += 1
                stack.append((nred, nblue, ncomputed, ng))

        if goal is not None:
            # all routes with f <= threshold were explored exhaustively and
            # best_g keeps per-state minima, so the goal is optimal unless a
            # pruned branch (f > threshold) could still undercut it.
            if next_threshold is None or goal[1] <= next_threshold:
                moves = None
                if return_schedule:
                    codes = []
                    k = goal[0]
                    while k in parents:
                        k, code = parents[k]
                        codes.append(code)
                    codes.reverse()
                    moves = ex.decode_moves(codes)
                return KernelResult(
                    ex.unscale(goal[1]), moves, expanded_total, generated_total
                )
            # otherwise keep deepening: a pruned branch could be cheaper
        if next_threshold is None:
            raise SolverError("search space exhausted without a solution")
        threshold = next_threshold

    raise SolverError(f"no solution within {max_iterations} deepening rounds")


def moves_to_schedule(moves: Optional[List[Move]]) -> Optional[Schedule]:
    """Wrap a kernel move list as a :class:`Schedule` (None passes through)."""
    return Schedule(moves) if moves is not None else None
