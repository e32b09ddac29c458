"""The successor alphabet that both exact engines search, state by state.

The exact search is delete- and store-normalized (see the
``repro.solvers.kernel`` docstring): below capacity a state has only
Load and Compute edges; from a full board it has one Store per red
pebble and, where the model allows deletes, the fused ``Delete(x);
Load/Compute(v)`` edges.  The checks run on every state reachable under
the literal rules (``apply_move_bits``, blue deletes included) from a few
small DAGs, in all four models, at R = Delta + 1 and Delta + 2, so they
also see states that the normalized search never reaches:

* ``Expander.successors`` keeps to that alphabet, and each edge replays
  through ``apply_move_bits`` to its successor key at its price;
* ``_expand_batch`` emits, for the same states as one batch, the same
  multiset of (state, successor, cost, code) as ``Expander.successors``,
  so the two engines search one state graph.
"""

from collections import Counter

import numpy as np
import pytest

from repro import ComputationDAG, PebblingInstance
from repro.core.bitstate import BitState, apply_move_bits, iter_bits
from repro.core.errors import IllegalMoveError
from repro.core.moves import MOVE_KINDS
from repro.generators import dag_from_spec
from repro.solvers.batch_kernel import _BatchContext, _expand_batch
from repro.solvers.kernel import _COMPUTE, _LOAD, _STORE, Expander

MODELS = ("base", "oneshot", "nodel", "compcost")

DAGS = {
    "pyramid:2": lambda: dag_from_spec("pyramid:2"),
    "chain:4": lambda: dag_from_spec("chain:4"),
    # one node of indegree 3, and a source feeding two levels
    "fan-in:3": lambda: ComputationDAG(
        edges=[(0, 3), (1, 3), (2, 3), (0, 4), (3, 4)], nodes=range(5)
    ),
}

CASES = [
    (name, model, extra)
    for name in DAGS for model in MODELS for extra in (1, 2)
]
CASE_IDS = [f"{name}-{model}-R=D+{extra}" for name, model, extra in CASES]


def _instance(name, model, extra):
    dag = DAGS[name]()
    return PebblingInstance(dag=dag, model=model, red_limit=dag.max_indegree + extra)


def reachable_keys(inst, ex):
    """Packed keys of every state the literal rules reach from the start."""
    n = ex.n
    layout = ex.layout
    moves = [kind(v) for kind in MOVE_KINDS for v in layout.nodes]
    seen = {BitState.initial()}
    todo = [BitState.initial()]
    while todo:
        state = todo.pop()
        for move in moves:
            try:
                nxt, _ = apply_move_bits(
                    layout, state, move, inst.costs, inst.red_limit
                )
            except IllegalMoveError:
                continue
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return sorted(s.red << 2 * n | s.blue << n | s.computed for s in seen)


@pytest.fixture(scope="module", params=CASES, ids=CASE_IDS)
def case(request):
    inst = _instance(*request.param)
    ex = Expander(inst)
    return inst, ex, reachable_keys(inst, ex)


def test_expander_keeps_to_the_normalized_alphabet(case):
    inst, ex, keys = case
    n = ex.n
    fused = 4 * n
    for key in keys:
        red = key >> 2 * n
        kinds = Counter()
        stores = []
        for _, _, code in ex.successors(key):
            kind = "fused" if code >= fused else code // n
            kinds[kind] += 1
            if kind == _STORE:
                stores.append(code % n)
        if red.bit_count() < inst.red_limit:
            assert not stores and not kinds["fused"], key
        else:
            # one Store per red pebble, and no slot for a plain Load/Compute
            assert sorted(stores) == list(iter_bits(red)), key
            assert not kinds[_LOAD] and not kinds[_COMPUTE], key
            if not inst.costs.delete_allowed:
                assert not kinds["fused"], key


def test_every_edge_replays_through_the_rules(case):
    inst, ex, keys = case
    n = ex.n
    full = ex.full_mask
    for key in keys:
        for nkey, cost_i, code in ex.successors(key):
            state = BitState(key >> 2 * n, key >> n & full, key & full)
            price = 0
            for move in ex.decode_moves([code]):
                state, cost = apply_move_bits(
                    ex.layout, state, move, inst.costs, inst.red_limit
                )
                price += cost
            assert state.red << 2 * n | state.blue << n | state.computed == nkey
            assert ex.unscale(cost_i) == price


def test_batch_expansion_emits_the_expander_edges(case):
    _, ex, keys = case
    n = ex.n
    full = ex.full_mask
    red, blue, computed = (
        np.array(col, dtype=np.uint64)
        for col in zip(*((k >> 2 * n, k >> n & full, k & full) for k in keys))
    )
    pi, nred, nblue, ncomp, cost, code = _expand_batch(
        _BatchContext(ex), red, blue, computed
    )
    batch = Counter(
        (keys[p], r << 2 * n | b << n | c, g, m)
        for p, r, b, c, g, m in zip(
            pi.tolist(), nred.tolist(), nblue.tolist(), ncomp.tolist(),
            cost.tolist(), code.tolist(),
        )
    )
    scalar = Counter(
        (key, nkey, cost_i, m)
        for key in keys
        for nkey, cost_i, m in ex.successors(key)
    )
    assert batch == scalar
