"""The default admissible bound of the exact solvers (``heuristic="auto"``).

Checked on hypothesis-drawn random DAGs of up to 7 nodes under every cost
model, plus a oneshot model with priced computation, where both terms of
the bound add.  Over the states reachable from the empty board (dead ones
included) and every normalized edge out of them:

* h(s) <= cost(s -> s') + h(s') wherever neither end is dead, so the
  bound is consistent (and, being 0 at goals, admissible);
* h = 0 at every goal state;
* every successor of a dead state (h is None) is dead, so a dead state
  has no completion;
* the numpy twin equals ``h(key)`` row for row, ``DEAD`` for None;

and the ``"auto"`` optimum equals the uniform-cost (``None``) optimum.
"""

from collections import deque
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.models import CostModel, Model
from repro.solvers.batch_kernel import DEAD, _BatchContext, _compile_bound
from repro.solvers.kernel import Expander, astar_bits, bound_terms, compile_bound

from .test_engine_differential import DIFF_SETTINGS, instances

#: states explored per example, breadth-first from the empty board
STATE_CAP = 3000

#: no recomputation and a priced Compute: the "loads+computes" bound
ONESHOT_PRICED = CostModel(
    model=Model.ONESHOT, compute_cost=Fraction(1, 10), recompute_allowed=False
)


def _reachable(ex, cap):
    seen = {0}
    order = [0]
    queue = deque(order)
    while queue and len(order) < cap:
        for nkey, _, _ in ex.successors(queue.popleft()):
            if nkey not in seen:
                seen.add(nkey)
                order.append(nkey)
                queue.append(nkey)
    return order


@settings(**{**DIFF_SETTINGS, "max_examples": 100})
@given(inst=instances(), priced_oneshot=st.booleans())
def test_bound_is_consistent_and_matches_its_twin(inst, priced_oneshot):
    if priced_oneshot:
        # the kernel reads only the DAG, R and the cost model
        inst = SimpleNamespace(
            dag=inst.dag, red_limit=inst.red_limit, costs=ONESHOT_PRICED
        )
    terms = bound_terms(inst.costs, "auto")
    optimum = astar_bits(inst, heuristic=None, return_schedule=False).cost
    assert astar_bits(inst, return_schedule=False).cost == optimum

    ex = Expander(inst)
    h = compile_bound(ex, terms)
    if h is None:
        assert inst.costs.recompute_allowed and inst.costs.compute_cost == 0
        return
    assert h(0) <= optimum * ex.scale
    keys = _reachable(ex, STATE_CAP)
    values = [h(key) for key in keys]
    for key, value in zip(keys, values):
        if ex.is_goal(key):
            assert value == 0
        for nkey, cost_i, _ in ex.successors(key):
            after = h(nkey)
            if value is None:
                assert after is None, (key, nkey)
            elif after is not None:
                assert value <= cost_i + after, (key, nkey)

    n, full = ex.n, ex.full_mask
    packed = np.array(keys, dtype=np.uint64)
    twin = _compile_bound(_BatchContext(ex), terms)
    rows = twin(
        packed >> np.uint64(2 * n),
        (packed >> np.uint64(n)) & np.uint64(full),
        packed & np.uint64(full),
    )
    assert rows.tolist() == [DEAD if v is None else v for v in values]
