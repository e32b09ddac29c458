"""The hard-to-compute (H2C) gadget of Figure 2.

Structure (for red budget R): a source ``s``, a group ``B`` of R-1 nodes
(each with the single input ``s``), and three *starter* nodes u1, u2, u3,
each having **all** of B as inputs.  The guarded node ``v`` consumes the
three starters.

Properties proved in Section 3 and verified in our test-suite:

* computing any starter requires all R red pebbles (R-1 on B, one on the
  starter), so when the third starter is computed the other two must have
  been stored blue and later re-loaded: computing ``v`` indirectly costs at
  least 4 transfer operations;
* once ``v`` is computed, re-acquiring its starters costs 3 (loads) while a
  store/load round trip on ``v`` costs 2 — so a reasonable pebbling never
  deletes ``v`` and recomputes it, which is exactly the "disable
  recomputation" usage of the gadget in the base/compcost constructions.

The gadget generalises to ``n_starters`` starter nodes (the tradeoff
construction of Appendix A.1 uses d+3 of them) and the ``s``/``B`` parts can
be shared between the gadgets of many guarded sources (Section 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Sequence, Tuple

from ..core.dag import ComputationDAG, Node

__all__ = ["H2CInfo", "h2c_dag", "attach_h2c"]

#: transfers needed to compute one guarded node through its gadget
#: (2 stores + 2 loads of starter nodes) in the oneshot/base models.
COST_PER_GUARDED_SOURCE = 4


@dataclass(frozen=True)
class H2CInfo:
    """Description of the H2C structure added to a DAG.

    Attributes
    ----------
    s:
        The shared deep source feeding every node of B.
    b_group:
        The R-1 nodes that all starters consume.
    starters:
        Mapping from each guarded node to its tuple of starter nodes.
    """

    s: Node
    b_group: Tuple[Node, ...]
    starters: Dict[Node, Tuple[Node, ...]]

    @property
    def n_added_nodes(self) -> int:
        return 1 + len(self.b_group) + sum(len(st) for st in self.starters.values())


def _gadget_edges(
    s: Node,
    b_group: Sequence[Node],
    starters: Sequence[Node],
    guarded: Node,
    n_consumed: int = 3,
):
    """Gadget edges: every starter consumes all of B; the first
    ``n_consumed`` starters feed the guarded node.  Extra starters (the
    Appendix A.1 variant adds d of them) are additional targets of B that
    force stores even at large R, without raising the guarded indegree.

    ``s``-to-B edges are emitted only when ``s`` is not None; in shared
    mode the caller emits them once rather than per guarded node.
    """
    edges = [(s, b) for b in b_group] if s is not None else []
    for i, u in enumerate(starters):
        edges.extend((b, u) for b in b_group)
        if i < n_consumed:
            edges.append((u, guarded))
    return edges


def h2c_dag(
    red_limit: int,
    *,
    n_starters: int = 3,
    label: Hashable = "h2c",
) -> Tuple[ComputationDAG, H2CInfo]:
    """Standalone H2C gadget guarding a single node ``(label, 'v')``.

    ``red_limit`` is the R the gadget is designed for; B has R-1 nodes.
    Requires R >= n_starters + 1 so that the guarded node itself is
    computable (its indegree is ``n_starters``).
    """
    if red_limit < 2:
        raise ValueError("red_limit must be >= 2")
    if n_starters < 3:
        raise ValueError("the gadget needs at least 3 starters to force transfers")
    if red_limit < 4:
        raise ValueError("guarded node has indegree 3; needs R >= 4")
    s = (label, "s")
    b_group = tuple((label, "B", i) for i in range(red_limit - 1))
    starters = tuple((label, "u", i) for i in range(n_starters))
    v = (label, "v")
    edges = _gadget_edges(s, b_group, starters, v)
    dag = ComputationDAG(edges=edges)
    return dag, H2CInfo(s=s, b_group=b_group, starters={v: starters})


def attach_h2c(
    dag: ComputationDAG,
    red_limit: int,
    *,
    guard: Optional[Sequence[Node]] = None,
    shared: bool = True,
    n_starters: int = 3,
    label: Hashable = "h2c",
) -> Tuple[ComputationDAG, H2CInfo]:
    """Attach H2C gadgets in front of source nodes of ``dag``.

    Parameters
    ----------
    dag:
        The DAG whose sources should become hard to compute.
    red_limit:
        The R the construction is played with; B gets R-1 nodes.
    guard:
        Which source nodes to guard (default: all sources of ``dag``).
    shared:
        If True (the Section 3 economy), a single ``s`` and B group are
        shared by every guarded source: 3 extra nodes per source plus R
        extra nodes total.  If False, each guarded source receives a fully
        private gadget (the Appendix A.2 variant used for per-source cost
        accounting).
    n_starters:
        Starters per guarded source (>= 3).

    Returns the new DAG and an :class:`H2CInfo` describing the added parts.
    """
    guard = tuple(guard if guard is not None else sorted(dag.sources, key=repr))
    for v in guard:
        if v not in dag:
            raise ValueError(f"guarded node {v!r} not in DAG")
        if dag.predecessors(v):
            raise ValueError(f"guarded node {v!r} is not a source")
    if n_starters < 3:
        raise ValueError("n_starters must be >= 3")
    if red_limit < 4:
        raise ValueError("the guarded indegree is 3; needs R >= 4")

    edges = list(dag.edges())
    nodes = list(dag.nodes)
    starters: Dict[Node, Tuple[Node, ...]] = {}

    if shared:
        s = (label, "s")
        b_group = tuple((label, "B", i) for i in range(red_limit - 1))
        edges.extend((s, b) for b in b_group)
        for v in guard:
            sts = tuple((label, "u", v, i) for i in range(n_starters))
            starters[v] = sts
            edges.extend(_gadget_edges(None, b_group, sts, v))
        info = H2CInfo(s=s, b_group=b_group, starters=starters)
    else:
        # Private gadgets: separate s and B per guarded source.  H2CInfo can
        # only record one (s, B); we expose the first and suffix the rest in
        # starters' node labels, which is sufficient for cost accounting.
        first_s = None
        first_b: Tuple[Node, ...] = ()
        for v in guard:
            s = (label, "s", v)
            b_group = tuple((label, "B", v, i) for i in range(red_limit - 1))
            if first_s is None:
                first_s, first_b = s, b_group
            sts = tuple((label, "u", v, i) for i in range(n_starters))
            starters[v] = sts
            edges.extend(_gadget_edges(s, b_group, sts, v))
        info = H2CInfo(s=first_s, b_group=first_b, starters=starters)

    return ComputationDAG(edges=edges, nodes=nodes), info
