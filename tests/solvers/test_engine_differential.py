"""Differential harness: every search engine against ``engine="bits"``.

The bitmask kernel is the calibrated reference.  It is itself locked to
the frozenset reference search of ``tests/legacy_reference.py`` at
uniform-cost ``heuristic=None`` (the reference runs no bound), on the
same instances as below (``TestBitsAgainstReference``), and to the
golden optima.  Each engine listed in ``ENGINES`` is locked to ``bits``,
at the same ``heuristic`` setting (the default ``"auto"`` bound and
uniform-cost ``None``), on

* the exact optimum cost (compared as exact ``Fraction`` values),
* schedule validity (the returned schedule must replay through the
  independent :func:`repro.validate_schedule` auditor at the same cost),
* expansion-count sanity (engines order work differently, so counters
  are *comparable*, not identical: each must stay within a loose
  multiplicative band of the reference),

over hypothesis-generated random DAGs x models x red limits plus the
hardness-gadget zoo.  A future engine gets the whole battery by adding
its ``engine=`` string to ``ENGINES``.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    BudgetExceededError,
    ComputationDAG,
    PebblingInstance,
    validate_schedule,
)
from repro.gadgets import h2c_dag
from repro.generators import dag_from_spec
from repro.solvers import solve_optimal

from ..legacy_reference import solve_optimal_legacy

MODELS = ("base", "oneshot", "nodel", "compcost")

#: engines under differential test; the reference "bits" engine is
#: implicit.  Add one id here to give a new engine full coverage.
ENGINES = ("numpy",)

#: (engine, heuristic) pairs: every engine at both settings
SETTINGS = [(engine, heuristic) for engine in ENGINES for heuristic in ("auto", None)]
#: an engine at its default setting keeps the engine's name as its id
SETTING_IDS = [e if h == "auto" else f"{e}-uniform-cost" for e, h in SETTINGS]

#: the batch engine amortizes over large frontiers and the
#: reference runs twice per example, so the example budget is modest;
#: the gadget zoo below covers the structured cases deterministically.
DIFF_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: how far an engine's expanded/generated counters may drift from the
#: reference before we call it a bug (batching changes pop order, but
#: not by orders of magnitude)
COUNTER_BAND = 100


def _h2c(r):
    dag, _ = h2c_dag(r)
    return dag


#: the hardness-gadget zoo: reduction DAGs and classic instances, all
#: small enough for every engine inside tier-1 time
GADGETS = [
    ("pyramid:3", "base", 3),
    ("pyramid:3", "compcost", 3),
    ("grid:3x3", "oneshot", 3),
    ("butterfly:2", "nodel", 3),
    ("chain:8", "base", 2),
    ("tree:4", "oneshot", 3),
    ("tradeoff:2x4", "nodel", 4),
    ("h2c:4", "base", 4),
    # wider than 21 nodes: the numpy engine's 24-byte keys (3n > 64)
    ("chain:24", "nodel", 2),
    ("grid:2x12", "oneshot", 3),
    ("chain:40", "nodel", 2),
    # 64 nodes, the most numpy accepts: bit 63 of each mask goes
    # through the key, the store and the trace
    ("chain:64", "nodel", 2),
]
GADGET_IDS = [f"{s}-{m}-r{r}" for s, m, r in GADGETS]


def _gadget_instance(spec: str, model: str, red_limit: int) -> PebblingInstance:
    if spec.startswith("h2c:"):
        dag = _h2c(int(spec.split(":")[1]))
    else:
        dag = dag_from_spec(spec)
    return PebblingInstance(dag=dag, model=model, red_limit=red_limit)


@st.composite
def instances(draw):
    """A random small pebbling instance (every model, feasible R)."""
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = []
    indeg = [0] * n
    for (u, v) in pairs:
        if indeg[v] < 3 and draw(st.booleans()):
            chosen.append((u, v))
            indeg[v] += 1
    dag = ComputationDAG(edges=chosen, nodes=range(n))
    model = draw(st.sampled_from(MODELS))
    red_limit = dag.max_indegree + 1 + draw(st.integers(min_value=0, max_value=2))
    return PebblingInstance(dag=dag, model=model, red_limit=red_limit)


def assert_agrees(name: str, result, reference, inst: PebblingInstance) -> None:
    """The whole differential contract for one result against its reference."""
    # 1. exact optimum agreement
    assert result.cost == reference.cost, (
        f"{name} disagrees with its reference: {result.cost} != {reference.cost}"
    )

    # 2. independently auditable schedule at exactly the optimal cost
    assert result.schedule is not None
    report = validate_schedule(inst, result.schedule)
    assert report.ok, report.violations[:3]
    assert report.cost == result.cost

    # 3. counter sanity: same order of magnitude of work
    assert result.expanded <= COUNTER_BAND * reference.expanded + COUNTER_BAND
    assert reference.expanded <= COUNTER_BAND * result.expanded + COUNTER_BAND
    assert result.generated >= result.expanded - 1  # every pop was generated
    if reference.cost > 0:
        assert result.expanded >= 1


def assert_engine_matches(engine: str, heuristic, inst: PebblingInstance,
                          budget: int = 300_000) -> None:
    """One engine against ``bits`` at the same ``heuristic`` setting."""
    reference = solve_optimal(
        inst, budget=budget, engine="bits", heuristic=heuristic
    )
    result = solve_optimal(inst, budget=budget, engine=engine, heuristic=heuristic)
    assert_agrees(engine, result, reference, inst)


def assert_bits_matches_reference(inst: PebblingInstance,
                                  budget: int = 300_000) -> None:
    """``bits`` at ``heuristic=None`` against the frozenset reference search;
    both schedules are audited."""
    bits = solve_optimal(inst, budget=budget, heuristic=None)
    reference = solve_optimal_legacy(inst, budget=budget)
    assert_agrees("bits", bits, reference, inst)
    assert_agrees("the frozenset reference", reference, bits, inst)


@pytest.mark.parametrize("engine,heuristic", SETTINGS, ids=SETTING_IDS)
class TestEngineDifferential:
    @settings(**DIFF_SETTINGS)
    @given(inst=instances())
    def test_random_instances(self, engine, heuristic, inst):
        assert_engine_matches(engine, heuristic, inst)

    @pytest.mark.parametrize("spec,model,red_limit", GADGETS, ids=GADGET_IDS)
    def test_gadget_zoo(self, engine, heuristic, spec, model, red_limit):
        assert_engine_matches(
            engine, heuristic, _gadget_instance(spec, model, red_limit)
        )

    def test_budget_exhaustion_raises(self, engine, heuristic):
        """Every engine stops at the expansion budget instead of running on."""
        inst = _gadget_instance("pyramid:3", "base", 3)
        with pytest.raises(BudgetExceededError):
            solve_optimal(inst, budget=10, engine=engine, heuristic=heuristic)


class TestBitsAgainstReference:
    """The reference engine itself, outside the delete-normalized move
    alphabet every engine shares."""

    @settings(**DIFF_SETTINGS)
    @given(inst=instances())
    def test_random_instances(self, inst):
        assert_bits_matches_reference(inst)

    @pytest.mark.parametrize("spec,model,red_limit", GADGETS, ids=GADGET_IDS)
    def test_gadget_zoo(self, spec, model, red_limit):
        assert_bits_matches_reference(_gadget_instance(spec, model, red_limit))


def test_engines_list_is_nonempty_and_excludes_reference():
    """Guard the harness itself: bits must stay the implicit reference."""
    assert ENGINES
    assert "bits" not in ENGINES


def test_unknown_engine_raises_with_catalogue():
    inst = _gadget_instance("pyramid:3", "base", 3)
    for engine in ("typo", "par", "legacy"):
        with pytest.raises(ValueError, match=rf"unknown engine '{engine}'.*bits.*numpy"):
            solve_optimal(inst, engine=engine)


def test_zero_cost_optimum_agrees_across_engines():
    """Zero-cost schedules (free computes) exercise the Dial zero-bucket
    refill."""
    inst = _gadget_instance("chain:8", "base", 2)
    costs = {e: solve_optimal(inst, engine=e).cost for e in ("bits", *ENGINES)}
    assert set(costs.values()) == {Fraction(0)}
