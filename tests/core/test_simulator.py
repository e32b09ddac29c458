"""Tests for the schedule simulator and cost accounting."""

from fractions import Fraction

import pytest

from repro import (
    DEFAULT_EPSILON,
    ComputationDAG,
    Compute,
    Delete,
    IllegalMoveError,
    IncompletePebblingError,
    InfeasibleInstanceError,
    Load,
    Model,
    PebblingInstance,
    PebblingSimulator,
    Schedule,
    Store,
    apply_move_bits,
    bit_layout,
)
from repro.core.bitstate import BitState
from repro.generators import grid_stencil_dag, layered_random_dag, pyramid_dag
from repro.heuristics import fixed_order_schedule, greedy_pebble, topological_schedule


@pytest.fixture
def chain3():
    return ComputationDAG([("a", "b"), ("b", "c")])


def make_sim(dag, model="base", R=3, **kw):
    return PebblingSimulator(PebblingInstance(dag=dag, model=model, red_limit=R, **kw))


class TestExecution:
    def test_free_pebbling_has_zero_cost(self, chain3):
        sim = make_sim(chain3, R=2)
        res = sim.run(
            [Compute("a"), Compute("b"), Delete("a"), Compute("c")],
            require_complete=True,
        )
        assert res.cost == 0
        assert res.complete
        assert res.max_red_in_use == 2

    def test_transfer_costs_counted(self, chain3):
        sim = make_sim(chain3, R=2)
        schedule = [
            Compute("a"),
            Compute("b"),
            Store("a"),      # 1
            Compute("c"),
            Load("a"),       # 1  (pointless but legal; b still red? no: R=2...)
        ]
        # After Store(a): red={b}, blue={a}; Compute(c): red={b,c}; Load(a) would
        # exceed R=2, so build a legal variant instead:
        schedule = [
            Compute("a"),
            Compute("b"),
            Store("a"),
            Compute("c"),
            Delete("b"),
            Load("a"),
        ]
        res = sim.run(schedule, require_complete=True)
        assert res.cost == 2
        assert res.breakdown.loads == 1
        assert res.breakdown.stores == 1

    def test_illegal_move_reports_step_index(self, chain3):
        sim = make_sim(chain3)
        with pytest.raises(IllegalMoveError) as err:
            sim.run([Compute("a"), Compute("c")])
        assert err.value.step == 1

    def test_require_complete_raises_on_unpebbled_sink(self, chain3):
        sim = make_sim(chain3)
        with pytest.raises(IncompletePebblingError):
            sim.run([Compute("a")], require_complete=True)

    def test_incomplete_flag_without_raise(self, chain3):
        sim = make_sim(chain3)
        res = sim.run([Compute("a")])
        assert not res.complete

    def test_accepts_schedule_object(self, chain3):
        sim = make_sim(chain3, R=3)
        res = sim.run(Schedule([Compute("a"), Compute("b"), Compute("c")]))
        assert res.complete and res.steps == 3

    def test_empty_schedule_on_sink_free_dag(self):
        dag = ComputationDAG(nodes=[])
        sim = make_sim(dag, R=1)
        res = sim.run([], require_complete=True)
        assert res.cost == 0 and res.steps == 0

    def test_cost_of_shortcut(self, chain3):
        sim = make_sim(chain3, R=3)
        assert sim.cost_of([Compute("a"), Compute("b"), Compute("c")]) == 0


class TestModelSpecificExecution:
    def test_compcost_total_includes_computes(self, chain3):
        sim = make_sim(chain3, model="compcost", R=3)
        res = sim.run([Compute("a"), Compute("b"), Compute("c")], require_complete=True)
        assert res.cost == Fraction(3, 100)
        assert res.transfer_cost == 0

    def test_compcost_custom_epsilon(self, chain3):
        sim = make_sim(chain3, model="compcost", R=3, epsilon=Fraction(1, 2))
        res = sim.run([Compute("a"), Compute("b"), Compute("c")])
        assert res.cost == Fraction(3, 2)

    def test_oneshot_rejects_recompute_in_schedule(self, chain3):
        sim = make_sim(chain3, model="oneshot", R=3)
        with pytest.raises(IllegalMoveError):
            sim.run([Compute("a"), Delete("a"), Compute("a")])

    def test_nodel_rejects_delete_in_schedule(self, chain3):
        sim = make_sim(chain3, model="nodel", R=3)
        with pytest.raises(IllegalMoveError):
            sim.run([Compute("a"), Delete("a")])

    def test_nodel_chain_needs_stores(self, chain3):
        # With R=2 in nodel, the red pebble on 'a' must be stored (not
        # deleted) before 'c' can be computed.
        sim = make_sim(chain3, model="nodel", R=2)
        res = sim.run(
            [Compute("a"), Compute("b"), Store("a"), Compute("c")],
            require_complete=True,
        )
        assert res.cost == 1


class TestInstance:
    def test_infeasible_red_limit_rejected(self, chain3):
        with pytest.raises(InfeasibleInstanceError):
            PebblingInstance(dag=chain3, model="base", red_limit=1)

    def test_minimum_feasible_red_limit_accepted(self, chain3):
        inst = PebblingInstance(dag=chain3, model="base", red_limit=2)
        assert inst.red_limit == chain3.min_red_pebbles

    def test_with_red_limit(self, chain3):
        inst = PebblingInstance(dag=chain3, model="base", red_limit=2)
        assert inst.with_red_limit(5).red_limit == 5

    def test_with_model(self, chain3):
        inst = PebblingInstance(dag=chain3, model="base", red_limit=2)
        inst2 = inst.with_model("oneshot")
        assert inst2.model is Model.ONESHOT
        assert not inst2.costs.recompute_allowed

    def test_model_string_coerced(self, chain3):
        inst = PebblingInstance(dag=chain3, model="nodel", red_limit=2)
        assert inst.model is Model.NODEL

    def test_describe_mentions_parameters(self, chain3):
        inst = PebblingInstance(dag=chain3, model="base", red_limit=2, cost_budget=7)
        text = inst.describe()
        assert "R=2" in text and "base" in text and "C<=7" in text


class TestTrace:
    def test_trace_reports_cumulative_cost(self, chain3):
        sim = make_sim(chain3, R=2)
        trace = sim.trace(
            [Compute("a"), Compute("b"), Store("a"), Compute("c")]
        )
        assert [t[2] for t in trace] == [0, 0, 1, 1]
        # final state of the trace pebbles the sink
        assert trace[-1][1].has_pebble("c")

    def test_trace_length(self, chain3):
        sim = make_sim(chain3, R=3)
        assert len(sim.trace([Compute("a")])) == 1



def per_kind_sums(inst, schedule):
    """Counts, then costs, of Load/Store/Compute/Delete, summed from
    ``apply_move_bits`` one move at a time."""
    layout = bit_layout(inst.dag)
    bits = BitState.initial()
    kinds = (Load, Store, Compute, Delete)
    counts = dict.fromkeys(kinds, 0)
    costs = dict.fromkeys(kinds, Fraction(0))
    for i, move in enumerate(schedule):
        bits, cost = apply_move_bits(layout, bits, move, inst.costs, inst.red_limit, i)
        counts[type(move)] += 1
        costs[type(move)] += cost
    return tuple(counts[k] for k in kinds) + tuple(costs[k] for k in kinds)


class TestPricingPerKind:
    """``run`` counts moves per kind and prices each kind once; every
    breakdown field must equal the per-move sum."""

    @pytest.mark.parametrize(
        "model,epsilon",
        [(m, DEFAULT_EPSILON) for m in ("base", "oneshot", "nodel", "compcost")]
        + [("compcost", Fraction(7, 1000))],
    )
    def test_breakdown_equals_per_move_sums(self, model, epsilon):
        dags = [
            pyramid_dag(3),
            grid_stencil_dag(3, 3),
            layered_random_dag([4, 3, 3, 2], indegree=2, seed=5),
        ]
        seen = set()
        for dag in dags:
            for extra in (0, 2):
                inst = PebblingInstance(
                    dag=dag, model=model, red_limit=dag.min_red_pebbles + extra,
                    epsilon=epsilon,
                )
                sim = PebblingSimulator(inst)
                for schedule in (
                    greedy_pebble(inst).schedule,
                    fixed_order_schedule(inst),
                    topological_schedule(inst),
                ):
                    expected = per_kind_sums(inst, schedule)
                    seen.update(k for k, n in zip("LSCD", expected[:4]) if n)
                    res = sim.run(schedule, require_complete=True)
                    b = res.breakdown
                    assert (
                        b.loads, b.stores, b.computes, b.deletes,
                        b.load_cost, b.store_cost, b.compute_cost, b.delete_cost,
                    ) == expected
                    assert res.cost == b.total_cost
                    assert res.steps == len(schedule)
                    # the stepping path ends on the same board and total
                    _, final, total = sim.trace(schedule)[-1]
                    assert (final, total) == (res.final_state, res.cost)
        # every kind the model allows is exercised
        assert seen == (set("LSC") if model == "nodel" else set("LSCD"))
