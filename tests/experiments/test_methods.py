"""The method registry: name resolution and outcome correctness."""

from fractions import Fraction

import pytest

from repro import PebblingInstance
from repro.experiments import TaskSpec, method_names, resolve_method
from repro.generators import dag_from_spec


def make(dag="pyramid:3", model="oneshot", red=3, method="greedy"):
    inst = PebblingInstance(dag=dag_from_spec(dag), model=model, red_limit=red)
    task = TaskSpec(spec="t", dag=dag, model=model, method=method, red_limit=red)
    return inst, task


class TestResolution:
    @pytest.mark.parametrize("name", [
        "baseline", "greedy", "exact", "local-search",
        "greedy:most-red-inputs", "greedy:red-ratio",
        "fixed-order:belady", "fixed-order:lru", "fixed-order:random7",
        "beam:4", "local-search:100", "sleep:0.01",
        # the smallest arguments the resolve-time checks accept
        "beam:1", "sleep:0", "fixed-order:random",
        "ml:exact", "ml:topo",
        "ml:exact:hier:3,6:1,4", "ml:topo:hier:4,16:1,8",
        "heur:portfolio", "heur:portfolio:4",
    ])
    def test_known_names_resolve(self, name):
        assert callable(resolve_method(name))

    @pytest.mark.parametrize("name", [
        "warp-drive", "greedy:bogus-rule", "fixed-order:bogus",
        "ml:bogus", "ml:exact:pyramid:3",
        "ml:exact:hier:3,6:1",  # malformed hierarchy must fail at resolve time
        "heur:bogus", "heur:portfolio:0", "heur:portfolio:x",
        "exact:legacy", "idastar",
        # malformed arguments must fail at resolve time, not in a worker
        "beam:0", "fixed-order:randomx", "sleep:-1", "sleep:inf", "sleep:nan",
    ])
    def test_unknown_names_raise(self, name):
        with pytest.raises(ValueError):
            resolve_method(name)

    def test_method_names_lists_families(self):
        names = method_names()
        assert "baseline" in names and "exact" in names


class TestOutcomes:
    def test_exact_beats_or_matches_heuristics(self):
        inst, task = make()
        exact = resolve_method("exact")(inst, task).cost
        for name in ("baseline", "greedy", "beam:4", "fixed-order:belady"):
            assert resolve_method(name)(inst, task).cost >= exact

    @pytest.mark.parametrize(
        "method,model,name",
        [
            ("exact", "oneshot", "loads"),
            ("exact", "nodel", "none"),
            ("exact:numpy", "compcost", "computes"),
        ],
    )
    def test_exact_methods_name_their_bound(self, method, model, name):
        inst, task = make(dag="pyramid:2", model=model, method=method)
        outcome = resolve_method(method)(inst, task)
        assert outcome.extra["heuristic"] == name

    def test_baseline_reports_naive_bound(self):
        inst, task = make(method="baseline")
        outcome = resolve_method("baseline")(inst, task)
        assert outcome.cost <= Fraction(outcome.extra["naive_bound"])

    def test_tradeoff_opt_matches_formula_shape(self):
        inst, task = make(dag="tradeoff:3x10", red=5, method="tradeoff-opt")
        outcome = resolve_method("tradeoff-opt")(inst, task)
        assert outcome.cost >= 0
        assert "paper_formula" in outcome.extra

    def test_tradeoff_opt_requires_tradeoff_dag(self):
        inst, task = make(dag="pyramid:3", method="tradeoff-opt")
        with pytest.raises(ValueError):
            resolve_method("tradeoff-opt")(inst, task)


class TestHeuristicPortfolio:
    def test_at_least_as_good_as_every_member(self):
        inst, task = make(method="heur:portfolio")
        outcome = resolve_method("heur:portfolio")(inst, task)
        members = {
            k[len("cost["):-1]: Fraction(v)
            for k, v in outcome.extra.items()
            if k.startswith("cost[")
        }
        assert members, "portfolio must report per-member costs"
        assert outcome.cost == min(members.values())
        assert outcome.extra["winner"] in members

    def test_never_beats_exact(self):
        inst, task = make(method="heur:portfolio")
        exact = resolve_method("exact")(inst, task).cost
        assert resolve_method("heur:portfolio")(inst, task).cost >= exact

    def test_beam_width_adds_a_member(self):
        inst, task = make(method="heur:portfolio:4")
        outcome = resolve_method("heur:portfolio:4")(inst, task)
        assert "cost[beam:4]" in outcome.extra

    def test_hong_kung_bound_reported_on_matmul(self):
        inst, task = make(dag="matmul:2", red=4, method="heur:portfolio")
        outcome = resolve_method("heur:portfolio")(inst, task)
        assert "hong_kung_bound" in outcome.extra
        assert float(outcome.cost) >= float(outcome.extra["hong_kung_bound"]) - 4

    def test_no_bound_on_unrecognised_dags(self):
        inst, task = make(dag="pyramid:3", method="heur:portfolio")
        outcome = resolve_method("heur:portfolio")(inst, task)
        assert "hong_kung_bound" not in outcome.extra


class TestMultilevelMethods:
    def test_default_hierarchy_matches_base_exact(self):
        """ml:exact's default 2-level hierarchy (R, unbounded) with unit
        costs is the red-blue base game: it must agree with plain exact
        on a base-model instance."""
        inst, task = make(model="base", method="ml:exact")
        ml = resolve_method("ml:exact")(inst, task)
        rb = resolve_method("exact")(inst, task)
        assert ml.cost == rb.cost
        assert ml.extra["levels"] == "2"

    def test_topo_upper_bounds_exact(self):
        inst, task = make(model="base")
        topo = resolve_method("ml:topo")(inst, task)
        exact = resolve_method("ml:exact")(inst, task)
        assert exact.cost <= topo.cost
        assert "peak_usage" in topo.extra

    def test_explicit_hierarchy_is_parsed_from_the_name(self):
        inst, task = make(model="base", method="ml:exact:hier:3,6:1,4")
        outcome = resolve_method("ml:exact:hier:3,6:1,4")(inst, task)
        assert outcome.extra["levels"] == "3"
        assert outcome.extra["capacities"] == "3,6,inf"

    def test_too_small_hierarchy_classified_infeasible_like_red_blue(self):
        """A level-0 capacity below Delta+1 must land in the same result
        bucket as an R below Delta+1 does for the red-blue methods."""
        from repro.experiments import Runner

        task = TaskSpec(
            spec="t", dag="pyramid:3", model="base",
            method="ml:exact:hier:2:1", red_limit=3,
        )
        result = Runner(jobs=0).run([task])[0]
        assert result.status.value == "infeasible"
