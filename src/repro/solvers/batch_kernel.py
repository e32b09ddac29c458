"""Batched numpy frontier engine: expand B packed states per step.

The bitmask kernel (:mod:`repro.solvers.kernel`) already made a state
one packed integer, but it still expands one state per python-level loop
iteration — every pop pays interpreter overhead for the bit scan, the
tuple allocations and the per-successor heap push.  This module applies
the data-parallel idiom of DaPPA/SpaDA-style frontier processing to the
same search: states live in ``uint64`` numpy arrays (one row per state,
one column per mask) and a whole frontier *batch* moves through each
stage as vectorized bitwise operations:

* **bucket queue** (Dial's algorithm): move costs are exact scaled
  integers, so the open list is a dict ``f -> chunks of states`` and the
  minimum bucket is popped wholesale — natural batches of equal-``f``
  states replace one-at-a-time heap pops (zero-cost edges refill the
  current bucket, which is drained before ``f`` advances);
* **vectorized legal-move masks**: loads/computes/stores for all states
  of a batch come from ``(B, n)`` broadcasts of the blue/candidate masks
  against precomputed per-node bit masks, with ``parents ⊆ red`` one
  AND-compare per (state, node) pair;
* **delete- and store-normalized successors**: the alphabet of the
  kernel docstring, with stores only from full rows and the fused
  ``Delete(x); move`` successors vectorized over the batch for each
  deleted bit ``x`` — the state graph searched is identical to the
  python kernel's, which is what makes differential testing meaningful;
* **the same bound**: the kernel's default admissible bound, evaluated
  for a whole batch of successors at once, whose dead rows are dropped
  before they reach the store.

Exactness is preserved end to end: masks are uint64 (DAGs up to 64
nodes — beyond that the arbitrary-precision ``bits`` engine takes over),
costs are the kernel's scaled integers, and one store, :class:`_Store`,
keeps every state's best ``g``, its closed mark and its parent as
sorted arrays keyed by exact packed keys, never by lossy hashes.  A key
is one ``uint64`` when ``3n <= 64``; wider layouts (21 < n <= 64) key
each state by its three masks viewed as one 24-byte ``np.void``, so both
widths run the same vectorized path.

The pure-python kernel stays authoritative: ``engine="bits"`` remains
the default of :func:`repro.solvers.exact.solve_optimal`, and the
differential harness (``tests/solvers/test_engine_differential.py``),
the golden-optima zoo and the edge-by-edge check of
``tests/solvers/test_alphabet.py`` pin this engine to it on every run.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

try:
    import numpy as np
except ImportError as exc:  # pragma: no cover - numpy is a dependency
    raise ImportError(
        "the batched numpy engine requires numpy; install it or use "
        "solve_optimal(engine='bits')"
    ) from exc

from ..core.bitstate import iter_bits
from ..core.errors import BudgetExceededError, SolverError
from ..core.instance import PebblingInstance
from . import kernel
from .kernel import Expander, KernelResult

__all__ = [
    "astar_batch",
    "popcount_u64",
]

_LOAD, _STORE, _COMPUTE = 0, 1, 2

_U64 = np.uint64

#: most states of one f-bucket expanded per batch
_BATCH_ROWS = 4096

#: a state's key when 3n > 64: its (red, blue, computed) words as one value
_WIDE_KEY = np.dtype((np.void, 3 * 8))

# SWAR popcount constants (used when numpy predates bitwise_count)
_M1 = _U64(0x5555555555555555)
_M2 = _U64(0x3333333333333333)
_M4 = _U64(0x0F0F0F0F0F0F0F0F)
_H01 = _U64(0x0101010101010101)


def _popcount_swar(a: "np.ndarray") -> "np.ndarray":
    """Per-element population count of a uint64 array, without numpy 2."""
    a = a - ((a >> _U64(1)) & _M1)
    a = (a & _M2) + ((a >> _U64(2)) & _M2)
    a = (a + (a >> _U64(4))) & _M4
    return (a * _H01) >> _U64(56)


#: per-element population count of a uint64 array
popcount_u64 = getattr(np, "bitwise_count", _popcount_swar)


class _Store:
    """Sorted-array best-``g``, closed and parent store over packed keys.

    ``cols`` are aligned columns sorted by the first: the key, the best
    ``g`` and, when the store keeps parents, the parent's key and the
    move code that reached the state (-1 at the start state).  The
    pop-time freshness check, the successor improvement filter and the
    trace are ``searchsorted`` lookups plus boolean masks.  A *settled*
    (expanded) state is encoded in place as ``g -> -g - 1``: real costs
    are non-negative, so any later copy of the state fails both the
    "fresh at its recorded g" test and the "improves on the old g" test
    without a separate closed set.
    """

    __slots__ = ("cols",)

    def __init__(self, start: "np.ndarray", with_parents: bool) -> None:
        self.cols: List["np.ndarray"] = [start, np.zeros(1, dtype=np.int64)]
        if with_parents:
            self.cols += [start.copy(), np.full(1, -1, dtype=np.int64)]

    def _lookup(self, karr: "np.ndarray") -> Tuple["np.ndarray", ...]:
        keys = self.cols[0]
        pos = np.searchsorted(keys, karr)
        hit = np.minimum(pos, len(keys) - 1)
        return pos, hit, keys[hit] == karr

    def settle(self, karr: "np.ndarray", g: "np.ndarray") -> "np.ndarray":
        """Keep-mask of batch rows popped at their recorded (optimal) g.

        ``karr`` must be duplicate-free; admitted rows are marked settled.
        """
        _, hit, found = self._lookup(karr)
        best = self.cols[1]
        fresh = found & (best[hit] == g)
        at = hit[fresh]
        best[at] = -best[at] - 1
        return fresh

    def update(self, karr: "np.ndarray", *values: "np.ndarray") -> "np.ndarray":
        """Keep-mask of successors that are new or strictly improve.

        ``karr`` must be sorted and duplicate-free; ``values`` are the
        successors' g, then their parent keys and move codes when the
        store keeps parents.  Improved rows overwrite their entry (settled
        entries are never improved: their stored g is negative, below any
        real cost); new keys are inserted at their sorted positions.
        """
        pos, hit, found = self._lookup(karr)
        improved = found & (values[0] < self.cols[1][hit])
        at = hit[improved]
        for col, v in zip(self.cols[1:], values, strict=True):
            col[at] = v[improved]
        new = ~found
        if new.any():
            at = pos[new]
            # one column at a time, so that only one is ever held twice
            for i, v in enumerate((karr, *values)):
                self.cols[i] = np.insert(self.cols[i], at, v[new])
        return new | improved

    def trace(self, key: "np.ndarray") -> List[int]:
        """The move codes along the parent columns from the start to
        ``key``, a one-element key array."""
        keys, _, parent, code = self.cols
        codes = []
        pos = int(np.searchsorted(keys, key)[0])
        while code[pos] >= 0:
            codes.append(int(code[pos]))
            pos = int(np.searchsorted(keys, parent[pos:pos + 1])[0])
        codes.reverse()
        return codes


class _BatchContext:
    """Numpy-side mirror of the :class:`Expander` precomputations."""

    __slots__ = (
        "ex",
        "n",
        "bits",
        "parent_masks",
        "full_mask",
        "sink_mask",
        "pack_shift",
    )

    def __init__(self, ex: Expander) -> None:
        n = ex.n
        if n > 64:
            raise ValueError(
                f"the numpy engine packs states into uint64 lanes and "
                f"supports at most 64 nodes; this DAG has {n} "
                f"(use engine='bits')"
            )
        self.ex = ex
        self.n = n
        self.bits = _U64(1) << np.arange(n, dtype=_U64)
        self.parent_masks = np.array(ex.parent_masks, dtype=_U64)
        self.full_mask = _U64(ex.full_mask)
        self.sink_mask = _U64(ex.sink_mask)
        # 3n <= 64: a whole state packs into one uint64
        self.pack_shift = _U64(n) if 3 * n <= 64 else None

    def keys_of(
        self, red: "np.ndarray", blue: "np.ndarray", computed: "np.ndarray"
    ) -> "np.ndarray":
        """Exact store keys of a batch: packed ``uint64`` or :data:`_WIDE_KEY`."""
        shift = self.pack_shift
        if shift is not None:
            return (red << shift << shift) | (blue << shift) | computed
        return np.stack((red, blue, computed), axis=1).view(_WIDE_KEY).ravel()


# --------------------------------------------------------------------- #
# the batched bound
# --------------------------------------------------------------------- #

#: the batched bound's value on a dead row (a real bound is never negative)
DEAD = -1


def _compile_bound(ctx: _BatchContext, terms: Tuple[str, ...]) -> Optional[Callable]:
    """Vectorized twin of :func:`repro.solvers.kernel.compile_bound`.

    ``h(red, blue, computed)`` returns one int64 per row: the scalar
    bound of that state, or :data:`DEAD` where the scalar bound returns
    None.  Returns None when ``terms`` is empty.
    """
    if not terms:
        return None
    ex = ctx.ex
    layout = ex.layout
    sinks = list(iter_bits(ex.sink_mask))
    sink_bits = ctx.bits[sinks]
    closures = np.array(
        [layout.ancestor_closure_of_sink(s) for s in sinks], dtype=_U64
    )
    compute_i = ex.compute_i if "computes" in terms else 0
    load_i = ex.load_i
    loads = "loads" in terms
    bits = ctx.bits
    parent_masks = ctx.parent_masks
    sink_mask = ctx.sink_mask
    zero = _U64(0)

    def h(red: "np.ndarray", blue: "np.ndarray", computed: "np.ndarray") -> "np.ndarray":
        pebbled = red | blue
        open_sinks = (pebbled[:, None] & sink_bits[None, :]) == 0
        needed = np.bitwise_or.reduce(
            np.where(open_sinks, closures[None, :], zero), axis=1
        )
        todo = needed & ~computed
        value = compute_i * popcount_u64(todo).astype(np.int64)
        if loads:
            on = (todo[:, None] & bits[None, :]) != 0
            parents = np.bitwise_or.reduce(
                np.where(on, parent_masks[None, :], zero), axis=1
            )
            value += load_i * popcount_u64(parents & blue).astype(np.int64)
            value[((parents | sink_mask) & computed & ~pebbled) != 0] = DEAD
        return value

    return h


# --------------------------------------------------------------------- #
# vectorized successor generation
# --------------------------------------------------------------------- #


def _expand_batch(
    ctx: _BatchContext,
    red: "np.ndarray",
    blue: "np.ndarray",
    computed: "np.ndarray",
) -> Tuple["np.ndarray", ...]:
    """All delete- and store-normalized successors of a batch, as flat
    arrays.

    Returns ``(parent_idx, nred, nblue, ncomputed, cost, code)`` where
    ``parent_idx`` indexes into the input batch.  The edge alphabet is
    exactly :meth:`Expander.successors`, vectorized: loads and computes
    from rows below capacity; stores and, in delete-allowed models, the
    fused deletes from full rows.
    """
    ex = ctx.ex
    n = ctx.n
    bits = ctx.bits
    parent_masks = ctx.parent_masks

    parts: List[Tuple["np.ndarray", ...]] = []

    def emit(
        pi: "np.ndarray",
        nred: "np.ndarray",
        nblue: "np.ndarray",
        ncomp: "np.ndarray",
        cost_i: int,
        codes: "np.ndarray",
    ) -> None:
        if len(pi):
            cost = np.full(len(pi), cost_i, dtype=np.int64)
            parts.append((pi, nred, nblue, ncomp, cost, codes))

    has_slot = popcount_u64(red) < ex.red_limit
    if ex.recompute_allowed:
        candidates = ctx.full_mask & ~red
    else:
        candidates = ctx.full_mask & ~computed

    free = np.nonzero(has_slot)[0]
    if len(free):
        rf, bf, cf = red[free], blue[free], computed[free]
        # loads: any blue bit
        si, vi = np.nonzero((bf[:, None] & bits[None, :]) != 0)
        emit(free[si], rf[si] | bits[vi], bf[si] ^ bits[vi], cf[si],
             ex.load_i, _LOAD * n + vi)
        # computes: candidate bits whose parents are all red
        computable = (parent_masks[None, :] & ~rf[:, None]) == 0
        sel = ((candidates[free][:, None] & bits[None, :]) != 0) & computable
        si, vi = np.nonzero(sel)
        emit(free[si], rf[si] | bits[vi], bf[si] & ~bits[vi], cf[si] | bits[vi],
             ex.compute_i, _COMPUTE * n + vi)

    full = np.nonzero(~has_slot)[0]
    rF, bF, cF = red[full], blue[full], computed[full]
    if ex.delete_allowed:
        # full board: fused Delete(x); Load/Compute(v) successors
        if len(full):
            fused = 4 * n
            candF = candidates[full]
            for x in range(n):
                xbit = bits[x]
                holders = np.nonzero((rF & xbit) != 0)[0]
                if len(holders) == 0:
                    continue
                base = fused * (x + 1)
                red_x = rF[holders] ^ xbit
                bh, ch = bF[holders], cF[holders]
                si, vi = np.nonzero((bh[:, None] & bits[None, :]) != 0)
                emit(full[holders[si]], red_x[si] | bits[vi],
                     bh[si] ^ bits[vi], ch[si],
                     ex.delete_i + ex.load_i, base + _LOAD * n + vi)
                computable = (parent_masks[None, :] & ~red_x[:, None]) == 0
                sel = ((candF[holders][:, None] & bits[None, :]) != 0) & computable
                si, vi = np.nonzero(sel)
                emit(full[holders[si]], red_x[si] | bits[vi],
                     bh[si] & ~bits[vi], ch[si] | bits[vi],
                     ex.delete_i + ex.compute_i, base + _COMPUTE * n + vi)

    # full board: stores of any red bit
    si, vi = np.nonzero((rF[:, None] & bits[None, :]) != 0)
    emit(full[si], rF[si] ^ bits[vi], bF[si] | bits[vi], cF[si],
         ex.store_i, _STORE * n + vi)

    if not parts:
        empty_u = np.empty(0, dtype=_U64)
        empty_i = np.empty(0, dtype=np.int64)
        return empty_i, empty_u, empty_u, empty_u, empty_i, empty_i
    return tuple(np.concatenate(col) for col in zip(*parts))


# --------------------------------------------------------------------- #
# batched A* / uniform-cost search
# --------------------------------------------------------------------- #


def astar_batch(
    instance: PebblingInstance,
    *,
    budget: int = 2_000_000,
    return_schedule: bool = True,
    heuristic: Optional[str] = "auto",
) -> KernelResult:
    """Optimal pebbling cost by batched best-first search over state arrays.

    Same contract as :func:`repro.solvers.kernel.astar_bits` — same edge
    alphabet, same ``heuristic`` bound with its dead rows dropped before
    they reach the store, and :class:`BudgetExceededError` past
    ``budget`` expansions — with expansion proceeding a frontier batch
    (up to :data:`_BATCH_ROWS` states of minimal ``f``) at a time.
    Expansion *order* within one cost level differs from the python
    kernel's heap tie-breaking, so ``expanded`` / ``generated`` counters
    are comparable but not identical across engines.
    """
    terms = kernel.bound_terms(instance.costs, heuristic)
    ex = Expander(instance)
    if ex.sink_mask == 0:  # empty DAG (or no sinks): already complete
        return KernelResult(Fraction(0), [] if return_schedule else None, 0, 0)
    ctx = _BatchContext(ex)
    h = _compile_bound(ctx, terms)

    zero = np.zeros(1, dtype=_U64)
    h0 = 0 if h is None else int(h(zero, zero, zero)[0])
    store = _Store(ctx.keys_of(zero, zero, zero), return_schedule)
    # Dial-style bucket queue: f -> list of (red, blue, computed, g) chunks
    buckets: Dict[int, List[tuple]] = {
        h0: [(zero, zero, zero, np.zeros(1, dtype=np.int64))]
    }
    fheap = [h0]
    expanded = 0
    generated = 0
    sink_mask = ctx.sink_mask

    while fheap:
        f = fheap[0]
        chunk_list = buckets.get(f)
        if not chunk_list:
            heapq.heappop(fheap)
            buckets.pop(f, None)
            continue

        # gather up to _BATCH_ROWS rows of the minimum-f bucket
        taken, size = [], 0
        while chunk_list and size < _BATCH_ROWS:
            chunk = chunk_list.pop()
            taken.append(chunk)
            size += len(chunk[0])
        if len(taken) == 1:
            red, blue, computed, g = taken[0]
        else:
            red = np.concatenate([c[0] for c in taken])
            blue = np.concatenate([c[1] for c in taken])
            computed = np.concatenate([c[2] for c in taken])
            g = np.concatenate([c[3] for c in taken])

        # dedup in-batch, then drop states already settled (an earlier
        # pop won)
        karr = ctx.keys_of(red, blue, computed)
        if len(karr) > 1:
            # equal keys in one f-bucket carry equal g (h is a function
            # of the state), so any representative works
            karr, first = np.unique(karr, return_index=True)
            red, blue, computed, g = red[first], blue[first], computed[first], g[first]
        fresh = store.settle(karr, g)
        if not fresh.all():
            if not fresh.any():
                continue
            idx = np.nonzero(fresh)[0]
            red, blue, computed, g, karr = (
                red[idx], blue[idx], computed[idx], g[idx], karr[idx]
            )

        goal = np.nonzero((sink_mask & ~(red | blue)) == 0)[0]
        if len(goal):
            i = int(goal[0])
            moves = None
            if return_schedule:
                moves = ex.decode_moves(store.trace(karr[i:i + 1]))
            return KernelResult(
                ex.unscale(int(g[i])), moves, expanded, generated
            )

        if expanded + len(red) > budget:
            raise BudgetExceededError(budget)
        expanded += len(red)

        pi, nred, nblue, ncomp, cost, code = _expand_batch(ctx, red, blue, computed)
        if len(pi) == 0:
            continue
        ng = g[pi] + cost

        # keep only the min-g representative of each distinct successor
        # before touching the store; this also sorts the successors by key
        kall = ctx.keys_of(nred, nblue, ncomp)
        order = np.lexsort((ng, kall))
        ksort = kall[order]
        first = np.empty(len(order), dtype=bool)
        first[0] = True
        first[1:] = ksort[1:] != ksort[:-1]
        rep = order[first]
        kall = ksort[first]
        pi, nred, nblue, ncomp, ng, code = (
            a[rep] for a in (pi, nred, nblue, ncomp, ng, code)
        )
        hv: Optional["np.ndarray"] = None
        if h is not None:
            hv = h(nred, nblue, ncomp)
            alive = np.nonzero(hv != DEAD)[0]
            pi, nred, nblue, ncomp, ng, code, kall, hv = (
                a[alive] for a in (pi, nred, nblue, ncomp, ng, code, kall, hv)
            )
        # settled states carry negative stored g, so the improvement
        # test alone also rejects every closed state
        if return_schedule:
            keepm = store.update(kall, ng, karr[pi], code)
        else:
            keepm = store.update(kall, ng)
        if not keepm.any():
            continue
        idx = np.nonzero(keepm)[0]
        generated += len(idx)

        nred, nblue, ncomp, ng = nred[idx], nblue[idx], ncomp[idx], ng[idx]
        nf = ng if hv is None else ng + hv[idx]
        for fv in np.unique(nf).tolist():
            sel = np.nonzero(nf == fv)[0]
            chunk = (nred[sel], nblue[sel], ncomp[sel], ng[sel])
            bucket = buckets.get(fv)
            if bucket is None:
                buckets[fv] = [chunk]
                heapq.heappush(fheap, fv)
            else:
                bucket.append(chunk)

    raise SolverError(
        "search space exhausted without reaching a complete state "
        "(this should be impossible for a feasible instance)"
    )
