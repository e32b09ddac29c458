"""Red-pebble eviction policies.

When a pebbler needs a free red slot it must pick a *victim* among the
current red pebbles (excluding those pinned by the computation in
progress).  The pebbler first narrows them to its cheapest non-empty
cost tier; a policy only breaks the tie inside that tier.  What happens
to the victim (store, delete, ...) is decided by the pebbler from the
model rules and the victim's remaining uses.

A policy works on bit indices of the pebbler's
:class:`~repro.core.bitstate.BitLayout`.  :meth:`EvictionPolicy.choose`
gets the tier as an ascending list of bits and reads the pebbler's per-bit
lists: ``_remaining`` (uncomputed consumers), ``_last_used`` (the move
count when the node was last read or computed, -1 if never) and
``_next_use(i)`` (the position of the node's next use, infinite when it
has none).  ``_next_use`` is exact when the pebbler follows a fixed order,
which makes :class:`FurthestNextUse` the Belady policy, optimal for
uniform re-acquisition costs.

Every policy is deterministic given the board (RandomEviction is seeded).
Ties on a policy's key go to the larger ``repr`` (the layout's
``repr_rank``), then to the lower bit.
"""

from __future__ import annotations

import copy
import random
from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # pragma: no cover
    from .pebbler import OnlinePebbler

__all__ = [
    "EvictionPolicy",
    "FurthestNextUse",
    "MinRemainingUses",
    "LeastRecentlyUsed",
    "RandomEviction",
]


class EvictionPolicy:
    """Base class: pick the victim among a tier of red pebbles."""

    name = "abstract"

    def choose(self, pool: List[int], pebbler: "OnlinePebbler") -> int:
        """The bit to evict from ``pool`` (ascending, at least two bits)."""
        raise NotImplementedError  # pragma: no cover - abstract

    def fork(self) -> "EvictionPolicy":
        """The policy a cloned pebbler goes on with: ``self`` when the
        policy keeps no state, else an independent copy of it."""
        return self

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}()"


class FurthestNextUse(EvictionPolicy):
    """Belady's rule: evict the pebble whose next use is furthest away
    (never-used-again pebbles rank highest).  Optimal for a fixed
    computation order when every re-acquisition costs the same."""

    name = "belady"

    def choose(self, pool: List[int], pebbler: "OnlinePebbler") -> int:
        next_use = pebbler._next_use
        rank = pebbler._layout.repr_rank
        return max(pool, key=lambda i: (next_use(i), rank[i]))


class MinRemainingUses(EvictionPolicy):
    """Evict the pebble with the fewest uncomputed consumers left.

    The natural online surrogate for Belady when the future order is
    unknown (greedy pebbling)."""

    name = "min-uses"

    def choose(self, pool: List[int], pebbler: "OnlinePebbler") -> int:
        remaining = pebbler._remaining
        rank = pebbler._layout.repr_rank
        return max(pool, key=lambda i: (-remaining[i], rank[i]))


class LeastRecentlyUsed(EvictionPolicy):
    """Evict the pebble not read for the longest time (classic LRU)."""

    name = "lru"

    def choose(self, pool: List[int], pebbler: "OnlinePebbler") -> int:
        last_used = pebbler._last_used
        rank = pebbler._layout.repr_rank
        return max(pool, key=lambda i: (-last_used[i], rank[i]))


class RandomEviction(EvictionPolicy):
    """Uniformly random victim from a seeded stream (ablation baseline)."""

    name = "random"

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def fork(self) -> "RandomEviction":
        """A copy that continues this stream on its own, so each beam
        branch draws as a fresh replay of its own order would."""
        return copy.deepcopy(self)

    def choose(self, pool: List[int], pebbler: "OnlinePebbler") -> int:
        ordered = sorted(pool, key=pebbler._layout.repr_rank.__getitem__)
        return ordered[self._rng.randrange(len(ordered))]
