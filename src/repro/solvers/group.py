"""Visit-order optimization for group-structured constructions.

Every hardness construction in the paper (Theorems 2-4) is built from
*input groups*: sets of R-1 nodes that all feed one or more target nodes,
so that computing a target requires **all** red pebbles.  A pebbling of
such a DAG is characterised by the order in which the groups are visited
(Section 6: "this essentially allows us to characterize the entire
pebbling by the order in which the target nodes are computed").

Optimizing the pebbling therefore reduces to a path-TSP over groups with
per-model transition costs.  This module provides the order optimizers:

* :func:`held_karp_min_order` — exact dynamic programming over subsets,
  O(2^N * N^2), for up to ~16 groups;
* :func:`brute_force_min_order` — permutation enumeration (tiny N; used to
  cross-check Held-Karp in tests);
* :func:`nearest_neighbor_order` + :func:`two_opt_improve` — scalable
  heuristics for larger instances.

Cost functions are supplied by the reduction modules as matrices:
``start[i]`` (cost of visiting group i first) and ``trans[i][j]`` (cost of
visiting j immediately after i).  Position-independent extra costs can be
folded into either; all optimizers also accept a ``precedence`` relation
(pairs (i, j) meaning i must precede j) for the DAG-constrained orders of
Theorems 3-4.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from ..core.errors import SolverError

__all__ = [
    "held_karp_min_order",
    "brute_force_min_order",
    "nearest_neighbor_order",
    "two_opt_improve",
]

Matrix = Sequence[Sequence[Fraction]]
Order = Tuple[int, ...]


def _check_inputs(n: int, start: Sequence, trans: Matrix) -> None:
    if len(start) != n or len(trans) != n or any(len(row) != n for row in trans):
        raise ValueError("start must have length n and trans must be n x n")


def _precedence_masks(n: int, precedence: Iterable[Tuple[int, int]]) -> List[int]:
    """For each group j, a bitmask of groups that must precede j."""
    before = [0] * n
    for i, j in precedence:
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise ValueError(f"bad precedence pair {(i, j)}")
        before[j] |= 1 << i
    return before


def order_cost(
    order: Sequence[int], start: Sequence[Fraction], trans: Matrix
) -> Fraction:
    """Total cost of a visit order under (start, trans)."""
    total = Fraction(start[order[0]])
    for a, b in zip(order, order[1:]):
        total += Fraction(trans[a][b])
    return total


def held_karp_min_order(
    start: Sequence[Fraction],
    trans: Matrix,
    *,
    precedence: Iterable[Tuple[int, int]] = (),
    max_groups: int = 18,
) -> Tuple[Fraction, Order]:
    """Exact minimum-cost visit order by Held-Karp subset DP.

    Returns ``(cost, order)``.  ``precedence`` pairs (i, j) restrict the
    search to orders where i appears before j (used by the Theorem 3/4
    constructions where a group's target sits inside another group).
    """
    n = len(start)
    _check_inputs(n, start, trans)
    if n == 0:
        return Fraction(0), ()
    if n > max_groups:
        raise SolverError(
            f"Held-Karp over {n} groups needs {n}*2^{n} table entries; "
            f"raise max_groups explicitly if you really want this"
        )
    before = _precedence_masks(n, precedence)
    full = (1 << n) - 1

    # dp[(mask, last)] = cheapest cost of visiting exactly `mask` ending at `last`
    dp: dict = {}
    parent: dict = {}
    for i in range(n):
        if before[i] == 0:
            dp[(1 << i, i)] = Fraction(start[i])

    for mask in range(1, full + 1):
        for last in range(n):
            key = (mask, last)
            if key not in dp:
                continue
            base = dp[key]
            for nxt in range(n):
                bit = 1 << nxt
                if mask & bit:
                    continue
                if before[nxt] & ~mask:  # some prerequisite not yet visited
                    continue
                nkey = (mask | bit, nxt)
                cand = base + Fraction(trans[last][nxt])
                if nkey not in dp or cand < dp[nkey]:
                    dp[nkey] = cand
                    parent[nkey] = key

    finals = [(dp[(full, last)], last) for last in range(n) if (full, last) in dp]
    if not finals:
        raise SolverError("precedence constraints admit no complete order")
    best_cost, last = min(finals)

    # reconstruct
    order: List[int] = [last]
    key = (full, last)
    while key in parent:
        key = parent[key]
        order.append(key[1])
    order.reverse()
    return best_cost, tuple(order)


def brute_force_min_order(
    start: Sequence[Fraction],
    trans: Matrix,
    *,
    precedence: Iterable[Tuple[int, int]] = (),
    max_groups: int = 9,
) -> Tuple[Fraction, Order]:
    """Minimum-cost order by full permutation enumeration (test oracle)."""
    n = len(start)
    _check_inputs(n, start, trans)
    if n == 0:
        return Fraction(0), ()
    if n > max_groups:
        raise SolverError(f"brute force over {n}! permutations refused")
    prec = list(precedence)
    best: Optional[Tuple[Fraction, Order]] = None
    for perm in itertools.permutations(range(n)):
        pos = {g: k for k, g in enumerate(perm)}
        if any(pos[i] > pos[j] for i, j in prec):
            continue
        cost = order_cost(perm, start, trans)
        if best is None or cost < best[0]:
            best = (cost, perm)
    if best is None:
        raise SolverError("precedence constraints admit no complete order")
    return best


def nearest_neighbor_order(
    start: Sequence[Fraction],
    trans: Matrix,
    *,
    precedence: Iterable[Tuple[int, int]] = (),
) -> Tuple[Fraction, Order]:
    """Greedy nearest-neighbour order respecting precedence constraints.

    Scales to hundreds of groups; pair with :func:`two_opt_improve`.
    """
    n = len(start)
    _check_inputs(n, start, trans)
    if n == 0:
        return Fraction(0), ()
    before = _precedence_masks(n, precedence)
    visited_mask = 0
    order: List[int] = []
    total = Fraction(0)
    last: Optional[int] = None
    for _ in range(n):
        candidates = [
            i
            for i in range(n)
            if not (visited_mask >> i) & 1 and not (before[i] & ~visited_mask)
        ]
        if not candidates:
            raise SolverError("precedence constraints admit no complete order")
        if last is None:
            nxt = min(candidates, key=lambda i: (Fraction(start[i]), i))
            total += Fraction(start[nxt])
        else:
            nxt = min(candidates, key=lambda i: (Fraction(trans[last][i]), i))
            total += Fraction(trans[last][nxt])
        order.append(nxt)
        visited_mask |= 1 << nxt
        last = nxt
    return total, tuple(order)


def two_opt_improve(
    order: Sequence[int],
    start: Sequence[Fraction],
    trans: Matrix,
    *,
    precedence: Iterable[Tuple[int, int]] = (),
    max_rounds: int = 50,
) -> Tuple[Fraction, Order]:
    """Segment-reversal local search on a visit order.

    Repeatedly reverses sub-segments while that lowers the order cost and
    keeps every precedence pair satisfied; stops at a local optimum or
    after ``max_rounds`` passes.

    The inputs are validated up front with the same errors the other
    optimizers raise: a mis-shaped ``start``/``trans`` or a bad
    precedence pair is a ``ValueError``, and so is a starting ``order``
    that is not a permutation of ``range(n)`` or violates
    ``precedence`` — without this, a wrong-sized ``trans`` would raise a
    bare ``IndexError`` mid-search and an invalid order would be
    silently "improved" and returned as if valid.
    """
    n = len(order)
    _check_inputs(n, start, trans)
    if n == 0:
        return Fraction(0), ()
    order = list(order)
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of range(n)")
    prec = list(precedence)
    _precedence_masks(n, prec)  # same bad-pair errors as the optimizers

    def respects(o: Sequence[int]) -> bool:
        pos = {g: k for k, g in enumerate(o)}
        return all(pos[i] < pos[j] for i, j in prec)

    if not respects(order):
        raise ValueError("order violates the precedence constraints")

    best_cost = order_cost(order, start, trans)
    for _ in range(max_rounds):
        improved = False
        for i in range(n - 1):
            for j in range(i + 1, n):
                cand = order[:i] + order[i : j + 1][::-1] + order[j + 1 :]
                if prec and not respects(cand):
                    continue
                c = order_cost(cand, start, trans)
                if c < best_cost:
                    order, best_cost = cand, c
                    improved = True
        if not improved:
            break
    return best_cost, tuple(order)
