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
* **delete-normalized successors**: the fused ``Delete(x); move``
  alphabet of the kernel docstring, vectorized over the batch for each
  deleted bit ``x`` — the state graph searched is identical to the
  python kernel's, which is what makes differential testing meaningful;
* **the same bound**: the kernel's default admissible bound, evaluated
  for a whole batch of successors at once, whose dead rows are dropped
  before they reach the store.

Exactness is preserved end to end: masks are uint64 (DAGs up to 64
nodes — beyond that the arbitrary-precision ``bits`` engine takes over),
costs are the kernel's scaled integers, and the closed/best-``g`` stores
are keyed by exact packed keys, never by lossy hashes.  When ``3n <= 64``
a whole state packs into one ``uint64`` and the store is the sorted
arrays of :class:`_GStore`; wider layouts (21 < n <= 64) key python
dictionaries by ``(red, blue, computed)`` tuples.

The pure-python kernel stays authoritative: ``engine="bits"`` remains
the default of :func:`repro.solvers.exact.solve_optimal`, and the
differential harness (``tests/solvers/test_engine_differential.py``)
plus the golden-optima zoo pin this engine to it on every run.
"""

from __future__ import annotations

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
from .kernel import Expander, KernelResult, trace_codes

__all__ = [
    "astar_batch",
    "popcount_u64",
]

_LOAD, _STORE, _COMPUTE = 0, 1, 2

_U64 = np.uint64

# SWAR popcount constants (used when numpy predates bitwise_count)
_M1 = _U64(0x5555555555555555)
_M2 = _U64(0x3333333333333333)
_M4 = _U64(0x0F0F0F0F0F0F0F0F)
_H01 = _U64(0x0101010101010101)


def popcount_u64(a: "np.ndarray") -> "np.ndarray":
    """Per-element population count of a uint64 array."""
    if hasattr(np, "bitwise_count"):  # numpy >= 2.0
        return np.bitwise_count(a)
    a = a - ((a >> _U64(1)) & _M1)
    a = (a & _M2) + ((a >> _U64(2)) & _M2)
    a = (a + (a >> _U64(4))) & _M4
    return (a * _H01) >> _U64(56)


class _GStore:
    """Sorted-array best-``g`` store for single-``uint64`` packed keys.

    Replaces the ``closed`` set and the ``best_g`` dict of the generic
    path with two flat arrays sorted by packed key, so both the pop-time
    freshness check and the successor improvement filter become
    ``searchsorted`` lookups plus boolean masks.  A *settled* (expanded)
    state is encoded in place as ``g -> -g - 1``: real costs are
    non-negative, so any later copy of the state fails both the
    "fresh at its recorded g" test and the "improves on the old g" test
    without a separate closed set.
    """

    __slots__ = ("keys", "g")

    def __init__(self, start_key: int) -> None:
        self.keys = np.array([start_key], dtype=_U64)
        self.g = np.zeros(1, dtype=np.int64)

    def _lookup(self, karr: "np.ndarray") -> Tuple["np.ndarray", "np.ndarray"]:
        pos = np.searchsorted(self.keys, karr)
        pos = np.minimum(pos, len(self.keys) - 1)
        found = self.keys[pos] == karr
        return pos, found

    def settle(self, karr: "np.ndarray", g: "np.ndarray") -> "np.ndarray":
        """Keep-mask of batch rows popped at their recorded (optimal) g.

        ``karr`` must be duplicate-free; admitted rows are marked settled.
        """
        pos, found = self._lookup(karr)
        fresh = found & (self.g[pos] == g)
        fpos = pos[fresh]
        self.g[fpos] = -self.g[fpos] - 1
        return fresh

    def update(self, karr: "np.ndarray", ng: "np.ndarray") -> "np.ndarray":
        """Keep-mask of successors that are new or strictly improve.

        ``karr`` must be duplicate-free; improved/new g values are
        recorded (settled entries are never improved: their stored value
        is negative, below any real cost).
        """
        pos, found = self._lookup(karr)
        improved = found & (ng < self.g[pos])
        self.g[pos[improved]] = ng[improved]
        new = ~found
        if new.any():
            self.keys = np.concatenate([self.keys, karr[new]])
            self.g = np.concatenate([self.g, ng[new]])
            order = np.argsort(self.keys, kind="stable")
            self.keys = self.keys[order]
            self.g = self.g[order]
        return new | improved


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
        # 3n <= 64: a whole state packs into one uint64, so batch keys
        # come from vector arithmetic; otherwise keys are (r, b, c) tuples
        self.pack_shift = n if 3 * n <= 64 else None

    def keys_of(
        self, red: "np.ndarray", blue: "np.ndarray", computed: "np.ndarray"
    ) -> list:
        """Exact dictionary keys for a batch, cheapest representation."""
        shift = self.pack_shift
        if shift is not None:
            return (
                (red << _U64(2 * shift)) | (blue << _U64(shift)) | computed
            ).tolist()
        return list(zip(red.tolist(), blue.tolist(), computed.tolist()))

    def start_key(self) -> "int | Tuple[int, int, int]":
        return 0 if self.pack_shift is not None else (0, 0, 0)


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
    nonsource = _U64(ex.full_mask & ~layout.source_mask)
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
        value = compute_i * popcount_u64(todo & nonsource).astype(np.int64)
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
    """All delete-normalized successors of a batch, as flat arrays.

    Returns ``(parent_idx, nred, nblue, ncomputed, cost, code)`` where
    ``parent_idx`` indexes into the input batch.  The edge alphabet is
    exactly :meth:`Expander.successors`, vectorized.
    """
    ex = ctx.ex
    n = ctx.n
    bits = ctx.bits
    parent_masks = ctx.parent_masks

    pi_parts: List[np.ndarray] = []
    red_parts: List[np.ndarray] = []
    blue_parts: List[np.ndarray] = []
    comp_parts: List[np.ndarray] = []
    cost_parts: List[np.ndarray] = []
    code_parts: List[np.ndarray] = []

    def emit(
        pi: "np.ndarray",
        nred: "np.ndarray",
        nblue: "np.ndarray",
        ncomp: "np.ndarray",
        cost_i: int,
        codes: "np.ndarray",
    ) -> None:
        if len(pi) == 0:
            return
        pi_parts.append(pi)
        red_parts.append(nred)
        blue_parts.append(nblue)
        comp_parts.append(ncomp)
        cost_parts.append(np.full(len(pi), cost_i, dtype=np.int64))
        code_parts.append(codes)

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

    if ex.delete_allowed:
        # full board: fused Delete(x); Load/Compute(v) successors
        full = np.nonzero(~has_slot)[0]
        if len(full):
            fused = 4 * n
            rF, bF, cF = red[full], blue[full], computed[full]
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

    # stores: any red bit, at or below capacity alike
    si, vi = np.nonzero((red[:, None] & bits[None, :]) != 0)
    emit(si, red[si] ^ bits[vi], blue[si] | bits[vi], computed[si],
         ex.store_i, _STORE * n + vi)

    if not pi_parts:
        empty_u = np.empty(0, dtype=_U64)
        empty_i = np.empty(0, dtype=np.int64)
        return empty_i, empty_u, empty_u, empty_u, empty_i, empty_i
    return (
        np.concatenate(pi_parts),
        np.concatenate(red_parts),
        np.concatenate(blue_parts),
        np.concatenate(comp_parts),
        np.concatenate(cost_parts),
        np.concatenate(code_parts),
    )


# --------------------------------------------------------------------- #
# batched A* / uniform-cost search
# --------------------------------------------------------------------- #


def astar_batch(
    instance: PebblingInstance,
    *,
    budget: int = 2_000_000,
    return_schedule: bool = True,
    heuristic: Optional[str] = "auto",
    max_batch: int = 4096,
    on_exhausted: str = "raise",
) -> KernelResult:
    """Optimal pebbling cost by batched best-first search over state arrays.

    Same contract as :func:`repro.solvers.kernel.astar_bits` — same edge
    alphabet, same ``heuristic`` bound with its dead rows dropped before
    they reach the store, same budget/exhaustion semantics — with
    expansion proceeding a frontier batch (up to ``max_batch`` states of
    minimal ``f``) at a time.  Expansion *order* within one cost level
    differs from the python kernel's heap tie-breaking, so ``expanded`` /
    ``generated`` counters are comparable but not identical across
    engines.
    """
    kernel.check_on_exhausted(on_exhausted)
    terms = kernel.bound_terms(instance.costs, heuristic)
    ex = Expander(instance)
    if ex.sink_mask == 0:  # empty DAG (or no sinks): already complete
        from fractions import Fraction

        return KernelResult(Fraction(0), [] if return_schedule else None, 0, 0)
    ctx = _BatchContext(ex)
    h = _compile_bound(ctx, terms)

    start_red = np.zeros(1, dtype=_U64)
    if h is not None:
        h0 = int(h(start_red, start_red, start_red)[0])
    else:
        h0 = 0
    start_key = ctx.start_key()

    # Dial-style bucket queue: f -> list of (red, blue, computed, g) chunks
    buckets: Dict[int, List[tuple]] = {
        h0: [(start_red, start_red.copy(), start_red.copy(),
              np.zeros(1, dtype=np.int64))]
    }
    import heapq

    fheap = [h0]
    # single-uint64 packed keys get the fully vectorized store; wider
    # layouts (21 < n <= 64) fall back to tuple keys in python dicts
    fast = ctx.pack_shift is not None
    if fast:
        store = _GStore(start_key)
        closed: set = set()
        best_g: Dict[object, int] = {}
    else:
        closed = set()
        best_g = {start_key: 0}
    parents: Dict[object, tuple] = {}
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

        # gather up to max_batch rows of the minimum-f bucket
        taken, size = [], 0
        while chunk_list and size < max_batch:
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

        # drop states already settled (an earlier pop won), dedup in-batch
        if fast:
            shift = _U64(ctx.pack_shift)
            karr = (red << shift << shift) | (blue << shift) | computed
            if len(karr) > 1:
                # equal keys in one f-bucket carry equal g (h is a
                # function of the state), so any representative works
                karr, first = np.unique(karr, return_index=True)
                red, blue, computed, g = (
                    red[first], blue[first], computed[first], g[first]
                )
            fresh = store.settle(karr, g)
            if not fresh.all():
                if not fresh.any():
                    continue
                idx = np.nonzero(fresh)[0]
                red, blue, computed, g, karr = (
                    red[idx], blue[idx], computed[idx], g[idx], karr[idx]
                )
            keys = None
        else:
            keys = ctx.keys_of(red, blue, computed)
            keep = [
                i for i, k in enumerate(keys)
                if k not in closed and not closed.add(k)
            ]
            if not keep:
                continue
            if len(keep) != len(keys):
                idx = np.array(keep, dtype=np.int64)
                red, blue, computed, g = red[idx], blue[idx], computed[idx], g[idx]
                keys = [keys[i] for i in keep]

        goal = np.nonzero((sink_mask & ~(red | blue)) == 0)[0]
        if len(goal):
            i = int(goal[0])
            goal_key = int(karr[i]) if fast else keys[i]
            moves = None
            if return_schedule:
                moves = ex.decode_moves(trace_codes(parents, goal_key))
            return KernelResult(
                ex.unscale(int(g[i])), moves, expanded, generated
            )

        if expanded + len(red) > budget:
            if on_exhausted == "bound":
                # this batch came from the minimum open bucket, so f is
                # the tightest lower bound still open
                return KernelResult(
                    ex.unscale(f), None, expanded, generated, complete=False
                )
            raise BudgetExceededError(budget)
        expanded += len(red)

        pi, nred, nblue, ncomp, cost, code = _expand_batch(ctx, red, blue, computed)
        if len(pi) == 0:
            continue
        ng = g[pi] + cost
        hv: Optional["np.ndarray"] = None

        if fast:
            shift = _U64(ctx.pack_shift)
            kall = (nred << shift << shift) | (nblue << shift) | ncomp
            if len(kall) > 1:
                # keep only the min-g representative of each distinct
                # successor before touching the store
                order = np.lexsort((ng, kall))
                ksort = kall[order]
                first = np.empty(len(order), dtype=bool)
                first[0] = True
                np.not_equal(ksort[1:], ksort[:-1], out=first[1:])
                rep = order[first]
                pi, nred, nblue, ncomp, ng, code = (
                    pi[rep], nred[rep], nblue[rep], ncomp[rep],
                    ng[rep], code[rep],
                )
                kall = ksort[first]
            if h is not None:
                hv = h(nred, nblue, ncomp)
                alive = np.nonzero(hv != DEAD)[0]
                pi, nred, nblue, ncomp, ng, code, kall, hv = (
                    a[alive] for a in (pi, nred, nblue, ncomp, ng, code, kall, hv)
                )
            # settled states carry negative stored g, so the improvement
            # test alone also rejects every closed state
            keepm = store.update(kall, ng)
            if not keepm.any():
                continue
            idx = np.nonzero(keepm)[0]
            generated += len(idx)
            if return_schedule:
                parents.update(zip(
                    kall[idx].tolist(),
                    zip(karr[pi[idx]].tolist(), code[idx].tolist()),
                ))
        else:
            if h is not None:
                hv = h(nred, nblue, ncomp)
                alive = np.nonzero(hv != DEAD)[0]
                pi, nred, nblue, ncomp, ng, code, hv = (
                    a[alive] for a in (pi, nred, nblue, ncomp, ng, code, hv)
                )
            # a state already settled (popped) has its optimal g in
            # best_g, so the g-improvement test alone also rejects every
            # closed state
            nkeys = ctx.keys_of(nred, nblue, ncomp)
            ng_list = ng.tolist()
            pi_list = pi.tolist()
            code_list = code.tolist()
            keep = []
            for j, k in enumerate(nkeys):
                old = best_g.get(k)
                gj = ng_list[j]
                if old is None or gj < old:
                    best_g[k] = gj
                    if return_schedule:
                        parents[k] = (keys[pi_list[j]], code_list[j])
                    keep.append(j)
            if not keep:
                continue
            generated += len(keep)
            idx = np.array(keep, dtype=np.int64)

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
