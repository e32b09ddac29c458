"""Input-group systems: the shared skeleton of the paper's constructions.

Every hardness construction in the paper (Theorems 2-4) consists of *input
groups*: sets of nodes that collectively feed one or more *target* nodes.
With group size g and R = g + 1 red pebbles, computing a target requires
every red pebble (g on the group, one on the target), so a pebbling is
characterised by its *visit sequence* over groups (Section 6).

:class:`GroupSystem` materialises a collection of groups into a
:class:`ComputationDAG` and provides the *visit emitter*: given a visit
sequence it produces the canonical schedule a reasonable pebbling follows —

* evict every red pebble the next group does not use (Store it when the
  value is needed by an unvisited group or is a sink; Delete it otherwise,
  or Store in nodel where deletion is illegal);
* acquire the group's members (Compute fresh sources for free; Load stored
  values in oneshot; recompute free sources in models that allow it);
* compute the group's targets in sequence, storing each to make room for
  the next.

The emitted schedules are validated and priced by the simulator; the
hardness benchmarks rest on them.  Supported models for emission: oneshot
and nodel (the base/compcost variants need H2C gadgets and are handled by
:mod:`repro.reductions.hampath` directly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Sequence, Set, Tuple

from ..core.dag import ComputationDAG, Node
from ..core.models import Model
from ..core.moves import Compute, Delete, Load, Move, Store
from ..core.schedule import Schedule

__all__ = ["InputGroup", "GroupSystem", "GroupVisitor"]

GroupId = Hashable


@dataclass(frozen=True)
class InputGroup:
    """One input group: ``members`` all feed every node in ``targets``."""

    id: GroupId
    members: Tuple[Node, ...]
    targets: Tuple[Node, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError(f"group {self.id!r} has no members")
        if not self.targets:
            raise ValueError(f"group {self.id!r} has no targets")
        if set(self.members) & set(self.targets):
            raise ValueError(f"group {self.id!r}: a node is both member and target")

    @property
    def size(self) -> int:
        return len(self.members)


class GroupSystem:
    """A DAG built from input groups, plus the canonical visit emitter."""

    def __init__(self, groups: Sequence[InputGroup]):
        if not groups:
            raise ValueError("need at least one group")
        ids = [g.id for g in groups]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate group ids")
        self.groups: Dict[GroupId, InputGroup] = {g.id: g for g in groups}
        self.group_size = max(g.size for g in groups)

        edges = []
        seen_edges = set()
        for g in groups:
            for t in g.targets:
                for m in g.members:
                    if (m, t) not in seen_edges:
                        seen_edges.add((m, t))
                        edges.append((m, t))
        self.dag = ComputationDAG(edges=edges)

        # which group(s) a node belongs to (as member), and which group
        # produces it (as target)
        self.member_of: Dict[Node, List[GroupId]] = {}
        self.target_of: Dict[Node, GroupId] = {}
        for g in groups:
            for m in g.members:
                self.member_of.setdefault(m, []).append(g.id)
            for t in g.targets:
                if t in self.target_of:
                    raise ValueError(f"node {t!r} is a target of two groups")
                self.target_of[t] = g.id

    # ------------------------------------------------------------------ #

    @property
    def red_limit(self) -> int:
        """The canonical R: max group size + 1."""
        return self.group_size + 1

    def precedence(self) -> List[Tuple[GroupId, GroupId]]:
        """Pairs (g, h): g must be visited before h because a target of g
        is a member of h."""
        pairs = []
        for h in self.groups.values():
            for m in h.members:
                g = self.target_of.get(m)
                if g is not None and g != h.id:
                    pairs.append((g, h.id))
        return sorted(set(pairs), key=repr)

    def valid_sequence(self, sequence: Sequence[GroupId]) -> bool:
        pos = {g: i for i, g in enumerate(sequence)}
        if sorted(pos, key=repr) != sorted(self.groups, key=repr):
            return False
        return all(pos[g] < pos[h] for g, h in self.precedence())

    # ------------------------------------------------------------------ #
    # the visit emitter
    # ------------------------------------------------------------------ #

    def emit_visit_schedule(
        self,
        sequence: Sequence[GroupId],
        model: "Model | str" = Model.ONESHOT,
    ) -> Schedule:
        """The canonical schedule realising a visit sequence.

        Only oneshot and nodel are supported (see module docstring).
        """
        sequence = list(sequence)
        if not self.valid_sequence(sequence):
            raise ValueError("sequence is not a valid (precedence-respecting) "
                             "permutation of the groups")
        visitor = GroupVisitor(self, model)
        for gid in sequence:
            visitor.visit(gid)
        return visitor.schedule()


class GroupVisitor:
    """Incremental form of the visit emitter.

    Drives one group visit at a time, exposing the board (``red``,
    ``blue``, ``computed``) between visits; the online greedy of the
    Theorem 4 experiments selects its next group from this state.  The
    Store/Delete decision treats a value as *needed later* when it is a
    sink or a member of a group not visited yet — exactly what a strategy
    without lookahead can know.
    """

    def __init__(self, system: GroupSystem, model: "Model | str" = Model.ONESHOT):
        model = Model.parse(model)
        if model not in (Model.ONESHOT, Model.NODEL):
            raise ValueError(
                f"visit emitter supports oneshot/nodel, not {model.value}"
            )
        self.system = system
        self.model = model
        self.moves: List[Move] = []
        self.red: Set[Node] = set()
        self.blue: Set[Node] = set()
        self.computed: Set[Node] = set()
        self.unvisited: Set[GroupId] = set(system.groups)

    # ------------------------------------------------------------------ #

    def enabled_groups(self) -> List[GroupId]:
        """Unvisited groups whose produced-elsewhere members are computed."""
        out = []
        for gid in self.unvisited:
            g = self.system.groups[gid]
            if all(
                m in self.computed or not self.system.dag.predecessors(m)
                for m in g.members
            ):
                out.append(gid)
        return out

    def red_members(self, gid: GroupId) -> int:
        """Red pebbles currently on the group — the greedy score."""
        return sum(1 for m in self.system.groups[gid].members if m in self.red)

    def schedule(self) -> Schedule:
        return Schedule(self.moves)

    # ------------------------------------------------------------------ #

    def _needed_later(self, v: Node) -> bool:
        if not self.system.dag.successors(v):  # sink: must keep its pebble
            return True
        return any(
            g in self.unvisited for g in self.system.member_of.get(v, ())
        )

    def _evict(self, v: Node) -> None:
        self.red.discard(v)
        if self.model is Model.NODEL or self._needed_later(v):
            self.moves.append(Store(v))
            self.blue.add(v)
        else:
            self.moves.append(Delete(v))

    def _acquire(self, v: Node) -> None:
        if v in self.red:
            return
        if v not in self.computed:
            # fresh member: must be a source (targets of unvisited groups
            # would violate precedence, which visit() rejects)
            assert not self.system.dag.predecessors(v), f"{v!r} not computable"
            self.moves.append(Compute(v))
            self.computed.add(v)
        elif self.model is Model.ONESHOT or self.system.dag.predecessors(v):
            # stored value that cannot be recomputed (oneshot) or whose
            # inputs' pebbles are long gone: re-load it
            self.moves.append(Load(v))
            self.blue.discard(v)
        else:
            # nodel: recompute the blue source for free
            self.moves.append(Compute(v))
            self.blue.discard(v)
        self.red.add(v)

    def visit(self, gid: GroupId) -> None:
        """Visit one group: evict foreigners, charge members, fire targets."""
        if gid not in self.unvisited:
            raise ValueError(f"group {gid!r} already visited (or unknown)")
        group = self.system.groups[gid]
        missing = [
            m
            for m in group.members
            if m not in self.computed and self.system.dag.predecessors(m)
        ]
        if missing:
            raise ValueError(
                f"group {gid!r} not enabled: members {missing[:3]!r} are "
                f"targets of unvisited groups"
            )
        self.unvisited.discard(gid)
        members = set(group.members)
        for v in sorted(self.red - members, key=repr):
            self._evict(v)
        for v in sorted(members, key=repr):
            self._acquire(v)
        for i, t in enumerate(group.targets):
            self.moves.append(Compute(t))
            self.computed.add(t)
            self.red.add(t)
            if i + 1 < len(group.targets):
                self._evict(t)
