"""Tests for the multi-level memory hierarchy generalisation."""

from fractions import Fraction

import pytest

from repro import ComputationDAG, IllegalMoveError, IncompletePebblingError
from repro.generators import chain_dag, grid_stencil_dag, pyramid_dag
from repro.multilevel import (
    HierarchySpec,
    MLCompute,
    MLDelete,
    MLMove,
    MultilevelInstance,
    MultilevelSimulator,
    multilevel_topological_schedule,
    two_level_equivalent,
)


def spec3(fast=3):
    return HierarchySpec(
        capacities=(fast, 2 * fast, None),
        transfer_costs=(Fraction(1), Fraction(10)),
    )


def make(dag, spec=None):
    return MultilevelInstance(dag=dag, spec=spec or spec3())


class TestHierarchySpec:
    def test_levels(self):
        assert spec3().levels == 3

    def test_uniform_factory(self):
        s = HierarchySpec.uniform(4, 2, geometric=2)
        assert s.capacities == (2, 4, 8, None)
        assert s.transfer_costs == (1, 1, 1)

    def test_needs_two_levels(self):
        with pytest.raises(ValueError):
            HierarchySpec(capacities=(3,), transfer_costs=())

    def test_cost_vector_length_checked(self):
        with pytest.raises(ValueError):
            HierarchySpec(capacities=(3, None), transfer_costs=(1, 1))

    def test_bounded_fast_levels_required(self):
        with pytest.raises(ValueError):
            HierarchySpec(capacities=(None, None), transfer_costs=(1,))

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            HierarchySpec(capacities=(3, None), transfer_costs=(-1,))

    def test_instance_needs_enough_level0(self):
        from repro.core.errors import InfeasibleInstanceError

        dag = pyramid_dag(2)  # indegree 2 needs capacity >= 3
        with pytest.raises(InfeasibleInstanceError):
            MultilevelInstance(
                dag=dag,
                spec=HierarchySpec(capacities=(2, None), transfer_costs=(1,)),
            )


class TestRules:
    def test_compute_source_into_level0(self):
        dag = ComputationDAG(nodes=["x"])
        sim = MultilevelSimulator(make(dag))
        state, cost = sim.step(sim.initial_state(), MLCompute("x"))
        assert state.level_of("x") == 0
        assert cost == 0

    def test_compute_requires_level0_inputs(self):
        dag = chain_dag(2)
        sim = MultilevelSimulator(make(dag))
        state, _ = sim.step(sim.initial_state(), MLCompute(0))
        state, _ = sim.step(state, MLMove(0, 1))  # demote input
        with pytest.raises(IllegalMoveError, match="not in fastest"):
            sim.step(state, MLCompute(1))

    def test_move_only_adjacent(self):
        dag = ComputationDAG(nodes=["x"])
        sim = MultilevelSimulator(make(dag))
        state, _ = sim.step(sim.initial_state(), MLCompute("x"))
        with pytest.raises(IllegalMoveError, match="not adjacent"):
            sim.step(state, MLMove("x", 2))

    def test_move_costs_per_boundary(self):
        dag = ComputationDAG(nodes=["x"])
        sim = MultilevelSimulator(make(dag))
        state, _ = sim.step(sim.initial_state(), MLCompute("x"))
        state, c1 = sim.step(state, MLMove("x", 1))
        state, c2 = sim.step(state, MLMove("x", 2))
        assert (c1, c2) == (1, 10)
        # and the way back up is symmetric
        state, c3 = sim.step(state, MLMove("x", 1))
        assert c3 == 10

    def test_capacity_enforced_on_each_level(self):
        dag = ComputationDAG(nodes=list("abcd"))
        spec = HierarchySpec(capacities=(3, 1, None), transfer_costs=(1, 1))
        sim = MultilevelSimulator(MultilevelInstance(dag=dag, spec=spec))
        state = sim.initial_state()
        for v in "abc":
            state, _ = sim.step(state, MLCompute(v))
        with pytest.raises(IllegalMoveError, match="level 0 capacity"):
            sim.step(state, MLCompute("d"))
        state, _ = sim.step(state, MLMove("a", 1))
        with pytest.raises(IllegalMoveError, match="level 1 capacity"):
            sim.step(state, MLMove("b", 1))

    def test_delete_any_level(self):
        dag = ComputationDAG(nodes=["x"])
        sim = MultilevelSimulator(make(dag))
        state, _ = sim.step(sim.initial_state(), MLCompute("x"))
        state, _ = sim.step(state, MLMove("x", 1))
        state, cost = sim.step(state, MLDelete("x"))
        assert cost == 0 and state.level_of("x") is None

    def test_delete_requires_pebble(self):
        dag = ComputationDAG(nodes=["x"])
        sim = MultilevelSimulator(make(dag))
        with pytest.raises(IllegalMoveError):
            sim.step(sim.initial_state(), MLDelete("x"))

    def test_recompute_is_allowed(self):
        dag = ComputationDAG(nodes=["x"])
        sim = MultilevelSimulator(make(dag))
        state, _ = sim.step(sim.initial_state(), MLCompute("x"))
        state, _ = sim.step(state, MLDelete("x"))
        state, _ = sim.step(state, MLCompute("x"))
        assert state.level_of("x") == 0

    def test_compute_pulls_value_from_lower_level(self):
        # computing a node that already holds a pebble elsewhere replaces it
        dag = ComputationDAG(nodes=["x"])
        sim = MultilevelSimulator(make(dag))
        state, _ = sim.step(sim.initial_state(), MLCompute("x"))
        state, _ = sim.step(state, MLMove("x", 1))
        state, _ = sim.step(state, MLCompute("x"))
        assert state.level_of("x") == 0
        assert "x" not in state.levels[1]


class TestBaselineStrategy:
    @pytest.mark.parametrize("levels,fast", [(2, 3), (3, 3), (4, 3)])
    def test_complete_on_classic_dags(self, levels, fast):
        dag = pyramid_dag(3)
        spec = HierarchySpec.uniform(levels, fast)
        inst = MultilevelInstance(dag=dag, spec=spec)
        sched = multilevel_topological_schedule(inst)
        res = MultilevelSimulator(inst).run(sched, require_complete=True)
        assert res.complete
        assert res.peak_usage[0] <= fast

    def test_cost_scales_with_boundary_prices(self):
        dag = grid_stencil_dag(3, 3)
        cheap = HierarchySpec(capacities=(3, 6, None), transfer_costs=(1, 1))
        pricey = HierarchySpec(capacities=(3, 6, None), transfer_costs=(1, 100))
        cost_cheap = MultilevelSimulator(
            MultilevelInstance(dag=dag, spec=cheap)
        ).run(
            multilevel_topological_schedule(MultilevelInstance(dag=dag, spec=cheap)),
            require_complete=True,
        ).cost
        cost_pricey = MultilevelSimulator(
            MultilevelInstance(dag=dag, spec=pricey)
        ).run(
            multilevel_topological_schedule(MultilevelInstance(dag=dag, spec=pricey)),
            require_complete=True,
        ).cost
        assert cost_pricey > cost_cheap

    def test_parking_nearer_is_cheaper(self):
        """Keeping the working set at level 1 instead of the far level
        saves the expensive boundary entirely."""
        dag = grid_stencil_dag(3, 3)
        spec = HierarchySpec(capacities=(3, 50, None), transfer_costs=(1, 100))
        inst = MultilevelInstance(dag=dag, spec=spec)
        far = MultilevelSimulator(inst).run(
            multilevel_topological_schedule(inst), require_complete=True
        ).cost
        near = MultilevelSimulator(inst).run(
            multilevel_topological_schedule(inst, park_level=1),
            require_complete=True,
        ).cost
        assert near < far

    def test_interposed_cache_absorbs_the_traffic(self):
        """A cheap level between fast memory and an expensive far level
        holds the working set: parking there costs under a tenth of the
        two-level hierarchy's traffic."""
        dag = grid_stencil_dag(4, 4)

        def topo_cost(spec, **kw):
            inst = MultilevelInstance(dag=dag, spec=spec)
            return MultilevelSimulator(inst).run(
                multilevel_topological_schedule(inst, **kw), require_complete=True
            ).cost

        two_level = topo_cost(
            HierarchySpec(capacities=(3, None), transfer_costs=(Fraction(100),))
        )
        spec = HierarchySpec(
            capacities=(3, 64, None), transfer_costs=(Fraction(1), Fraction(100))
        )
        three_far = topo_cost(spec)
        three_near = topo_cost(spec, park_level=1)
        assert three_near < three_far
        assert three_near < two_level / 10

    def test_incomplete_raises(self):
        dag = chain_dag(3)
        inst = MultilevelInstance(dag=dag, spec=spec3())
        with pytest.raises(IncompletePebblingError):
            MultilevelSimulator(inst).run([MLCompute(0)], require_complete=True)

    def test_rejects_non_topological_order(self):
        dag = chain_dag(3)
        inst = MultilevelInstance(dag=dag, spec=spec3())
        with pytest.raises(ValueError):
            multilevel_topological_schedule(inst, order=[2, 1, 0])


class TestTwoLevelEquivalence:
    """L=2 with unit costs IS the red-blue base game."""

    def make_pair(self, dag, r):
        spec = HierarchySpec(capacities=(r, None), transfer_costs=(Fraction(1),))
        ml = MultilevelInstance(dag=dag, spec=spec)
        return ml, two_level_equivalent(ml)

    def test_equivalent_instance_shape(self):
        ml, rb = self.make_pair(pyramid_dag(2), 3)
        assert rb.red_limit == 3
        assert rb.model.value == "base"

    def test_same_costs_on_translated_schedules(self):
        """Translate a red-blue schedule move-for-move and compare costs."""
        from repro import (
            Compute as RBCompute,
            Delete as RBDelete,
            Load as RBLoad,
            PebblingSimulator,
            Store as RBStore,
        )
        from repro.heuristics import fixed_order_schedule

        for dag in (pyramid_dag(3), grid_stencil_dag(4, 4)):
            ml, rb = self.make_pair(dag, 3)
            rb_sched = fixed_order_schedule(rb)
            translation = []
            for move in rb_sched:
                if isinstance(move, RBCompute):
                    translation.append(MLCompute(move.node))
                elif isinstance(move, RBStore):
                    translation.append(MLMove(move.node, 1))
                elif isinstance(move, RBLoad):
                    translation.append(MLMove(move.node, 0))
                else:
                    assert isinstance(move, RBDelete)
                    translation.append(MLDelete(move.node))
            rb_cost = PebblingSimulator(rb).run(rb_sched, require_complete=True).cost
            ml_cost = MultilevelSimulator(ml).run(
                translation, require_complete=True
            ).cost
            assert rb_cost == ml_cost

    def test_rejects_non_two_level(self):
        ml = MultilevelInstance(dag=pyramid_dag(2), spec=spec3())
        with pytest.raises(ValueError):
            two_level_equivalent(ml)

    def test_rejects_non_unit_costs(self):
        spec = HierarchySpec(capacities=(3, None), transfer_costs=(Fraction(2),))
        ml = MultilevelInstance(dag=pyramid_dag(2), spec=spec)
        with pytest.raises(ValueError):
            two_level_equivalent(ml)
