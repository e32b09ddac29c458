"""Red-pebble eviction policies.

When a pebbler needs a free red slot it must pick a *victim* among the
current red pebbles (excluding those pinned by the computation in
progress).  The policy only picks the victim; what happens to it (store,
delete, ...) is decided by the pebbler from the model rules and the
victim's remaining uses.

Policies see a :class:`EvictionContext` snapshot and must be deterministic
given it (RandomEviction is seeded).  ``next_use`` is exact when the
pebbler follows a fixed order (making :class:`FurthestNextUse` the Belady
policy, optimal for uniform re-acquisition costs) and is ``None`` (treated
as "never") for nodes with no remaining uses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..core.dag import Node

__all__ = [
    "EvictionContext",
    "EvictionPolicy",
    "FurthestNextUse",
    "MinRemainingUses",
    "LeastRecentlyUsed",
    "RandomEviction",
]

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
