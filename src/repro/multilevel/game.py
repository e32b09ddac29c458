"""The multi-level pebble game: rules, states, simulator.

Model (following the multi-level generalisation of red-blue pebbling):

* L memory levels, level 0 fastest; a value occupies at most one level;
* level i holds at most ``capacities[i]`` pebbles (the last level is
  conventionally unbounded, ``None``);
* Step *move*: shift a pebble between adjacent levels i <-> i+1 at cost
  ``transfer_costs[i]`` (charged in both directions, like Steps 1-2 of
  the red-blue game);
* Step *compute*: place a level-0 pebble on v when all inputs of v hold
  level-0 pebbles (free, or ``compute_cost``);
* Step *delete*: remove a pebble from any level (free).

With L = 2, capacities (R, None) and unit transfer costs this is exactly
the base red-blue game; :func:`two_level_equivalent` builds the matching
core-engine instance and the tests verify cost equality move-for-move.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..core.dag import ComputationDAG, Node
from ..core.errors import IncompletePebblingError, InfeasibleInstanceError
from ..core.instance import PebblingInstance
from ..core.models import Model

__all__ = [
    "HierarchySpec",
    "MLCompute",
    "MLDelete",
    "MLMove",
    "MultilevelInstance",
    "MultilevelState",
    "MultilevelSimulator",
    "two_level_equivalent",
]


@dataclass(frozen=True)
class HierarchySpec:
    """Shape of the memory hierarchy.

    Attributes
    ----------
    capacities:
        Pebble capacity per level, fastest first.  ``None`` = unbounded
        (usually only the last level).
    transfer_costs:
        Cost of moving one value across the boundary between level i and
        level i+1 (length = levels - 1).
    compute_cost:
        Cost of the compute step (0 for the classic game).
    """

    capacities: Tuple[Optional[int], ...]
    transfer_costs: Tuple[Fraction, ...]
    compute_cost: Fraction = Fraction(0)

    def __post_init__(self):
        if len(self.capacities) < 2:
            raise ValueError("need at least two memory levels")
        if len(self.transfer_costs) != len(self.capacities) - 1:
            raise ValueError("need exactly levels-1 transfer costs")
        for c in self.capacities[:-1]:
            if c is None or c < 1:
                raise ValueError("all levels but the last need a positive capacity")
        object.__setattr__(
            self, "transfer_costs", tuple(Fraction(c) for c in self.transfer_costs)
        )
        if any(c < 0 for c in self.transfer_costs):
            raise ValueError("transfer costs must be non-negative")
        object.__setattr__(self, "compute_cost", Fraction(self.compute_cost))

    @property
    def levels(self) -> int:
        return len(self.capacities)

    @classmethod
    def uniform(cls, levels: int, fast_capacity: int, *, geometric: int = 1):
        """A simple hierarchy: capacities grow geometrically from
        ``fast_capacity``, last level unbounded, unit transfer costs."""
        caps: List[Optional[int]] = [
            fast_capacity * (geometric ** i) for i in range(levels - 1)
        ]
        caps.append(None)
        return cls(
            capacities=tuple(caps),
            transfer_costs=tuple(Fraction(1) for _ in range(levels - 1)),
        )


class MLMove:
    """Move a pebble from its current level to an adjacent ``to_level``."""

    __slots__ = ("node", "to_level")

    def __init__(self, node: Node, to_level: int):
        self.node = node
        self.to_level = to_level

    def __repr__(self):  # pragma: no cover - trivial
        return f"MLMove({self.node!r}, to={self.to_level})"

    def __eq__(self, other):
        return (
            isinstance(other, MLMove)
            and self.node == other.node
            and self.to_level == other.to_level
        )

    def __hash__(self):
        return hash(("mlmove", self.node, self.to_level))


class MLCompute:
    __slots__ = ("node",)

    def __init__(self, node: Node):
        self.node = node

    def __repr__(self):  # pragma: no cover - trivial
        return f"MLCompute({self.node!r})"

    def __eq__(self, other):
        return isinstance(other, MLCompute) and self.node == other.node

    def __hash__(self):
        return hash(("mlcompute", self.node))


class MLDelete:
    __slots__ = ("node",)

    def __init__(self, node: Node):
        self.node = node

    def __repr__(self):  # pragma: no cover - trivial
        return f"MLDelete({self.node!r})"

    def __eq__(self, other):
        return isinstance(other, MLDelete) and self.node == other.node

    def __hash__(self):
        return hash(("mldelete", self.node))


class MultilevelState:
    """Immutable board: a tuple of per-level frozensets."""

    __slots__ = ("levels", "_hash")

    def __init__(self, levels: Sequence[FrozenSet[Node]]):
        self.levels: Tuple[FrozenSet[Node], ...] = tuple(
            frozenset(s) for s in levels
        )
        self._hash = hash(self.levels)

    @classmethod
    def initial(cls, n_levels: int) -> "MultilevelState":
        return cls([frozenset()] * n_levels)

    def level_of(self, v: Node) -> Optional[int]:
        for i, s in enumerate(self.levels):
            if v in s:
                return i
        return None

    def pebbled(self) -> FrozenSet[Node]:
        out: FrozenSet[Node] = frozenset()
        for s in self.levels:
            out |= s
        return out

    def __eq__(self, other):
        return isinstance(other, MultilevelState) and self.levels == other.levels

    def __hash__(self):
        return self._hash

    def __repr__(self):  # pragma: no cover - debugging aid
        body = "; ".join(
            f"L{i}:{{{','.join(sorted(map(str, s)))}}}"
            for i, s in enumerate(self.levels)
        )
        return f"MultilevelState({body})"


@dataclass(frozen=True)
class MultilevelInstance:
    """A multi-level pebbling problem: DAG + hierarchy."""

    dag: ComputationDAG
    spec: HierarchySpec

    def __post_init__(self):
        # the same feasibility frontier as PebblingInstance (level 0 plays
        # the role of R), reported with the same error type so experiment
        # grids classify the cell as infeasible, not as a solver error
        if self.spec.capacities[0] < self.dag.max_indegree + 1:
            raise InfeasibleInstanceError(
                self.spec.capacities[0], self.dag.max_indegree
            )


class MultilevelSimulator:
    """Referee for the multi-level game (mirrors PebblingSimulator).

    Both APIs run on :func:`~repro.multilevel.bitgame.apply_ml_move_bits`.
    Schedule execution (:meth:`run`) keeps the board as a tuple of
    per-level masks for the whole run and decodes only the final state
    back to a :class:`MultilevelState`; the stepping API (:meth:`step`)
    takes and returns public ``MultilevelState`` objects, encoding at the
    edge and decoding the state that comes back.
    """

    def __init__(self, instance: MultilevelInstance):
        self.instance = instance
        self.dag = instance.dag
        self.spec = instance.spec

    def initial_state(self) -> MultilevelState:
        return MultilevelState.initial(self.spec.levels)

    # ------------------------------------------------------------------ #

    def step(self, state: MultilevelState, move) -> Tuple[MultilevelState, Fraction]:
        """Apply one move, returning ``(new_state, move_cost)``.

        ``state`` holds nodes of this instance's DAG only: it is encoded
        under the DAG's :class:`~repro.core.bitstate.BitLayout`, and a
        node outside the DAG fails that encoding with :class:`KeyError`.
        Raises :class:`~repro.core.errors.IllegalMoveError` if the move
        is illegal in ``state``.
        """
        from ..core.bitstate import bit_layout
        from .bitgame import apply_ml_move_bits, decode_ml_state, encode_ml_state

        layout = bit_layout(self.dag)
        masks, cost = apply_ml_move_bits(
            layout, self.spec, encode_ml_state(layout, state), move
        )
        return decode_ml_state(layout, masks), cost

    # ------------------------------------------------------------------ #

    def is_complete(self, state: MultilevelState) -> bool:
        pebbled = state.pebbled()
        return all(s in pebbled for s in self.dag.sinks)

    def run(self, schedule: Iterable, *, require_complete: bool = False):
        from ..core.bitstate import bit_layout
        from .bitgame import apply_ml_move_bits, decode_ml_state, initial_ml_state

        spec = self.spec
        layout = bit_layout(self.dag)
        masks = initial_ml_state(spec.levels)
        total = Fraction(0)
        peak = [0] * spec.levels
        steps = 0
        for move in schedule:
            masks, cost = apply_ml_move_bits(layout, spec, masks, move)
            total += cost
            steps += 1
            for i, m in enumerate(masks):
                count = m.bit_count()
                if count > peak[i]:
                    peak[i] = count
        state = decode_ml_state(layout, masks)
        complete = self.is_complete(state)
        if require_complete and not complete:
            missing = [s for s in self.dag.sinks if s not in state.pebbled()]
            raise IncompletePebblingError(missing)
        return MultilevelResult(
            cost=total, final_state=state, steps=steps,
            complete=complete, peak_usage=tuple(peak),
        )


@dataclass(frozen=True)
class MultilevelResult:
    cost: Fraction
    final_state: MultilevelState
    steps: int
    complete: bool
    peak_usage: Tuple[int, ...]


def two_level_equivalent(instance: MultilevelInstance) -> PebblingInstance:
    """The core-engine (base model) instance matching a 2-level hierarchy
    with unit transfer costs.  Raises when the hierarchy is not of that
    shape.  Used by the equivalence tests."""
    spec = instance.spec
    if spec.levels != 2:
        raise ValueError("only 2-level hierarchies have a red-blue equivalent")
    if spec.capacities[1] is not None:
        raise ValueError("the slow level must be unbounded")
    if spec.transfer_costs != (Fraction(1),):
        raise ValueError("the red-blue game has unit transfer costs")
    if spec.compute_cost != 0:
        raise ValueError("the base red-blue game has free computation")
    return PebblingInstance(
        dag=instance.dag, model=Model.BASE, red_limit=spec.capacities[0]
    )
