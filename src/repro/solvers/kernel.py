"""The shared bitmask search kernel behind every exact solver.

Before this module, the exact solvers and the bound helpers each rolled
their own frozenset-based best-first search; every expansion allocated
three frozensets and re-hashed them.  The kernel replaces all of that
with one implementation operating on the :mod:`repro.core.bitstate`
encoding:

* a state is one packed int ``red << 2n | blue << n | computed``, the
  key of the open/closed dictionaries and the value successors are
  computed from;
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
  *fused* ``Delete(x); Load/Compute(v)`` successors instead, which
  shrinks the state graph;
* *store normalization*, by the same exchange argument: a Store(v) made
  below capacity moves right, v staying red, past the later moves until
  the board is full, where it stays; or it cancels against the Load of
  v (v simply stays red) or a recompute of v (both drop); or it is
  dropped at the end, where a red pebble finishes a sink as well as a
  blue one.  A later Delete of v's blue pebble is dropped first, as the
  solver never deletes blue.  The moves a Store passes were made below
  capacity, so each stays legal and the deletes stay at full boards;
  no step raises the cost.  The kernel therefore yields Store edges only
  from a full board (R red pebbles), which shrinks the state graph again.

**One best-first loop.**  :func:`best_first` is the A* driver of every
game searched over packed int keys.  It owns the heap of ``(f, -g,
tiebreak, key)``, the closed set, ``best_g``, the parent map, the budget
exit and the parent-chain walk (:func:`trace_codes`), and it asks a
game's expander for four things:

* ``successors(key)`` yielding ``(nkey, cost_i, code)`` per normalized
  edge, ``cost_i`` in scaled integer units;
* ``is_goal(key)``;
* ``decode_moves(codes)``, turning the walked move codes into moves;
* ``unscale(g)``, turning a scaled cost back into a Fraction.

The start state is the empty board, key 0, in every game.  :class:`Expander`
is the red-blue game and ``_MLExpander`` of :mod:`repro.solvers.multilevel`
the multi-level one.  :func:`astar_bits` (the default engine of
``solve_optimal``) is a thin front-end over the driver.

**One admissible bound per cost model.**  It runs as A* by default
(``heuristic="auto"``) under :func:`compile_bound`, an ``h(key)`` on the
packed key whose terms :func:`bound_terms` reads off the cost model;
``heuristic=None`` is uniform-cost search.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from ..core.bitstate import bit_layout, iter_bits
from ..core.errors import BudgetExceededError, SolverError
from ..core.instance import PebblingInstance
from ..core.models import CostModel
from ..core.moves import MOVE_KINDS, Delete, Move

__all__ = [
    "KernelResult",
    "Expander",
    "best_first",
    "astar_bits",
    "bound_terms",
    "compile_bound",
]

#: move-code kinds, aligned with Move.kind_id (load, store, compute, delete)
_LOAD, _STORE, _COMPUTE, _DELETE = 0, 1, 2, 3


class KernelResult(NamedTuple):
    """What a kernel search reports back to the solver front-ends.

    ``complete`` is False only for ``on_exhausted="bound"`` results where
    the budget ran out: ``cost`` is then a lower bound on the optimum,
    not the optimum itself.
    """

    cost: Fraction
    moves: Optional[List[Any]]
    expanded: int
    generated: int
    complete: bool = True


class Expander:
    """Precomputed per-instance search context — the engine-agnostic seam.

    Every exact engine (the python A* here, the numpy batch engine of
    :mod:`repro.solvers.batch_kernel`) builds one of these and reads the
    same scaled integer costs, precomputed masks, normalized successor
    alphabet and move decoding from it, so "what the game is" is defined
    in exactly one place and the engines differ only in *how* they
    traverse it.
    """

    __slots__ = (
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
        "parent_masks",
        "full_mask",
        "sink_mask",
    )

    def __init__(self, instance: PebblingInstance) -> None:
        costs = instance.costs
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
        self.parent_masks = self.layout.parent_masks
        self.full_mask = self.layout.full_mask
        self.sink_mask = self.layout.sink_mask

    def unscale(self, g: int) -> Fraction:
        return Fraction(g, self.scale)

    def is_goal(self, key: int) -> bool:
        """Every sink carries a pebble of either colour."""
        return self.sink_mask & ~((key >> self.n) | (key >> 2 * self.n)) == 0

    def successors(self, key: int) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(nkey, cost_i, move_code)`` per edge out of ``key``.

        Edges follow the delete- and store-normalized move alphabet (see
        the module docstring): plain Load/Compute moves below capacity;
        at capacity, one Store per red pebble plus, in delete-allowed
        models, fused ``Delete(x); Load/Compute(v)`` successors.
        ``move_code`` is ``kind * n + bit_index`` for a plain move and
        ``4n * (x + 1) + plain_code`` for a fused one (see
        :meth:`decode_moves`).
        """
        n = self.n
        n2 = 2 * n
        full = self.full_mask
        red = key >> n2
        has_slot = red.bit_count() < self.red_limit
        parent_masks = self.parent_masks
        load_i = self.load_i
        compute_i = self.compute_i
        if self.recompute_allowed:
            candidates = full & ~red
        else:
            candidates = full & ~key

        # Load(v): v turns blue -> red; Compute(v): v turns red and
        # computed, losing any blue pebble
        if has_slot:
            m = (key >> n) & full
            while m:
                low = m & -m
                m ^= low
                yield (
                    (key | (low << n2)) ^ (low << n),
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
                        (key | (low << n2) | low) & ~(low << n),
                        compute_i,
                        _COMPUTE * n + i,
                    )
            return
        if self.delete_allowed:
            # full board: fused Delete(x); Load/Compute(v) successors
            fused = 4 * n
            del_load_i = self.delete_i + load_i
            del_compute_i = self.delete_i + compute_i
            blue = (key >> n) & full
            mx = red
            while mx:
                lowx = mx & -mx
                mx ^= lowx
                x = lowx.bit_length() - 1
                base = fused * (x + 1)
                red_x = red ^ lowx
                key_x = key ^ (lowx << n2)
                m = blue
                while m:
                    low = m & -m
                    m ^= low
                    yield (
                        (key_x | (low << n2)) ^ (low << n),
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
                            (key_x | (low << n2) | low) & ~(low << n),
                            del_compute_i,
                            base + _COMPUTE * n + i,
                        )

        # full board: Store(v), v turns red -> blue
        store_i = self.store_i
        m = red
        while m:
            low = m & -m
            m ^= low
            yield (
                (key ^ (low << n2)) | (low << n),
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


# ---------------------------------------------------------------------- #
# the default admissible bound
# ---------------------------------------------------------------------- #


def bound_terms(costs: CostModel, heuristic: Optional[str]) -> Tuple[str, ...]:
    """The terms of the admissible bound that ``heuristic`` selects.

    ``"auto"`` (the default of every exact solver) reads them off the
    cost model's flags: ``"loads"`` when recomputation is forbidden,
    ``"computes"`` when computation is priced, both when both hold, and
    none in base and nodel.  ``None`` selects no term: uniform-cost
    search.  Any other value raises :class:`ValueError`.
    """
    if heuristic is None:
        return ()
    if heuristic != "auto":
        raise ValueError(
            f"unknown heuristic {heuristic!r}; expected 'auto' (the "
            f"admissible bound of the cost model) or None (uniform-cost "
            f"search)"
        )
    terms = []
    if not costs.recompute_allowed:
        terms.append("loads")
    if costs.compute_cost > 0:
        terms.append("computes")
    return tuple(terms)


def compile_bound(
    ex: Expander, terms: Tuple[str, ...]
) -> Optional[Callable[[int], Optional[int]]]:
    """``h(key)``, the admissible, consistent bound made of ``terms``.

    Call *todo* the needed, uncomputed nodes: the sinks without a pebble
    and their ancestors, less the computed nodes.  A Compute needs its
    parents red, so the computed nodes are closed under ancestors and
    every *todo* node must still be computed.  In scaled cost units:

    * ``"computes"`` charges one Compute per *todo* node, a source's
      too: a Compute is the only move that pebbles an uncomputed node;
    * ``"loads"`` (no recomputation) charges one Load per blue parent of
      a *todo* node: the parent must be red again when its child is
      computed, and only a Load can make it so.  It returns None, a dead
      state with no completion, when such a parent or a sink is computed
      but holds no pebble, since no move can pebble it again.

    A Load lowers the sum by at most one load and a Compute by at most
    one compute; a Store or a Delete never lowers it.  So the bound is
    consistent, it is 0 at every goal, and every successor of a dead
    state is dead.  Returns None when ``terms`` is empty.
    """
    if not terms:
        return None
    n = ex.n
    n2 = 2 * n
    full = ex.full_mask
    layout = ex.layout
    sink_mask = ex.sink_mask
    compute_i = ex.compute_i if "computes" in terms else 0
    load_i = ex.load_i
    loads = "loads" in terms
    # keyed by a node's lowest-set-bit mask, as the bit scans below yield it
    closure_of = {
        1 << s: layout.ancestor_closure_of_sink(s) for s in iter_bits(sink_mask)
    }
    parents_of = {1 << i: mask for i, mask in enumerate(ex.parent_masks)}

    def h(key: int) -> Optional[int]:
        computed = key & full
        blue = (key >> n) & full
        pebbled = (key >> n2) | blue
        open_sinks = sink_mask & ~pebbled
        if loads and open_sinks & computed:
            return None
        needed = 0
        m = open_sinks
        while m:
            low = m & -m
            m ^= low
            needed |= closure_of[low]
        todo = needed & ~computed
        value = compute_i * todo.bit_count()
        if loads:
            parents = 0
            m = todo
            while m:
                low = m & -m
                m ^= low
                parents |= parents_of[low]
            if parents & computed & ~pebbled:
                return None
            value += load_i * (parents & blue).bit_count()
        return value

    return h


# ---------------------------------------------------------------------- #
# the best-first driver
# ---------------------------------------------------------------------- #


def trace_codes(parents: Dict[Any, Tuple[Any, int]], key: Any) -> List[int]:
    """The move codes along the parent chain from the start to ``key``."""
    codes = []
    while key in parents:
        key, code = parents[key]
        codes.append(code)
    codes.reverse()
    return codes


def check_on_exhausted(mode: str) -> None:
    """Reject an unknown budget-exhaustion mode before any search runs."""
    if mode not in ("raise", "bound"):
        raise ValueError(
            f"unknown on_exhausted mode {mode!r}; expected 'raise' or 'bound'"
        )


def best_first(
    ex: Any,
    h: Optional[Callable[[int], Optional[int]]],
    *,
    budget: int,
    return_schedule: bool,
    on_exhausted: str,
) -> KernelResult:
    """Best-first search from key 0 over ``ex``'s packed-key state graph.

    Uniform-cost search when ``h`` is None, A* under the consistent
    heuristic ``h(key)`` otherwise; a successor on which ``h`` returns
    None is dead (no completion exists) and is dropped before it reaches
    ``best_g``.  Equal f-values pop the larger g first, then in push
    order.  States are closed at their first pop, which is optimal
    because every ``cost_i`` is non-negative and ``h`` is consistent.
    ``on_exhausted`` controls behaviour when ``budget`` expansions are
    reached: ``"raise"`` raises :class:`BudgetExceededError`; ``"bound"``
    returns a *lower bound* on the optimum — the smallest f-value still
    open — with ``moves=None`` and ``complete=False``.
    """
    check_on_exhausted(on_exhausted)
    successors = ex.successors
    is_goal = ex.is_goal
    counter = itertools.count()
    # (f, -g, tiebreak, key): the start state is never dead
    frontier: List[Tuple[int, int, int, int]] = [
        ((h(0) or 0) if h else 0, 0, next(counter), 0)
    ]
    best_g: Dict[int, int] = {0: 0}
    parents: Dict[int, Tuple[int, int]] = {}
    closed = set()
    expanded = 0
    generated = 0

    while frontier:
        f, neg_g, _, key = heapq.heappop(frontier)
        if key in closed:
            continue
        closed.add(key)
        g = -neg_g

        if is_goal(key):
            moves = None
            if return_schedule:
                moves = ex.decode_moves(trace_codes(parents, key))
            return KernelResult(ex.unscale(g), moves, expanded, generated)

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

        for nkey, cost_i, code in successors(key):
            if nkey in closed:
                continue
            ng = g + cost_i
            old = best_g.get(nkey)
            if old is None or ng < old:
                if h is None:
                    nf = ng
                else:
                    hv = h(nkey)
                    if hv is None:
                        continue
                    nf = ng + hv
                best_g[nkey] = ng
                if return_schedule:
                    parents[nkey] = (key, code)
                heapq.heappush(frontier, (nf, -ng, next(counter), nkey))
                generated += 1

    raise SolverError(
        "search space exhausted without reaching a complete state "
        "(this should be impossible for a feasible instance)"
    )


def astar_bits(
    instance: PebblingInstance,
    *,
    budget: int = 2_000_000,
    return_schedule: bool = True,
    heuristic: Optional[str] = "auto",
    on_exhausted: str = "raise",
) -> KernelResult:
    """Optimal pebbling cost by best-first search over bitmask states.

    A* under the cost model's bound for ``heuristic="auto"``, uniform-cost
    search for ``None`` (see :func:`bound_terms`).  ``on_exhausted`` is
    ``"raise"`` (default) or ``"bound"``, as in :func:`best_first`; the
    bound mode serves :func:`repro.solvers.bounds.exhaustive_cost_bounds`.
    """
    terms = bound_terms(instance.costs, heuristic)
    ex = Expander(instance)
    return best_first(
        ex,
        compile_bound(ex, terms),
        budget=budget,
        return_schedule=return_schedule,
        on_exhausted=on_exhausted,
    )
