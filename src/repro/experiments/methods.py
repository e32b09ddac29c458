"""The method axis of an experiment grid.

A *method* maps a :class:`~repro.core.instance.PebblingInstance` (plus
its :class:`~repro.experiments.spec.TaskSpec`, for parametrised methods)
to a :class:`MethodOutcome`.  Methods are addressed by string name so an
:class:`~repro.experiments.ExperimentSpec` stays fully declarative:

=======================  ====================================================
name                     behaviour
=======================  ====================================================
``baseline``             naive topological strategy; reports the
                         ``(2*Delta+1)*n`` bound in ``extra``
``greedy:RULE``          Section 8 greedy (``most-red-inputs`` /
                         ``fewest-blue-inputs`` / ``red-ratio``);
                         ``greedy`` alone uses the default rule
``fixed-order:POLICY``   Belady-style pebbler over the topological order
                         with eviction ``belady`` / ``lru`` / ``min-uses``
                         / ``random[SEED]``
``beam:WIDTH``           beam search over computation orders
``local-search[:EVALS]`` greedy order + hill climbing
``heur:portfolio[:W]``   the heuristics-only tier for instances where
                         exact search is infeasible: runs every greedy
                         rule plus the ``belady`` / ``min-uses`` eviction
                         pebblers (and, with ``:W``, a width-W beam
                         search), reports the best cost, each member's
                         cost, and — for ``matmul:*`` / ``butterfly:*``
                         DAG specs — the Hong-Kung reference lower bound
                         in ``extra`` as the quality yardstick
``exact``                optimal cost via the bitmask search kernel: A*
                         under the cost model's admissible bound, named
                         as ``heuristic`` in ``extra`` beside ``engine``
``exact:numpy``          optimal cost via the batched numpy frontier
                         engine (:mod:`repro.solvers.batch_kernel`), under
                         the same bound
``tradeoff-opt``         the provably optimal Figure 3/4 alternating
                         strategy (requires a ``tradeoff:DxN`` DAG spec)
``ml:exact``             optimal cost of the *multi-level* game
                         (:mod:`repro.multilevel`) via the packed-state
                         solver; the default hierarchy is the 2-level
                         ``(R, unbounded)`` with unit transfer costs, i.e.
                         the red-blue base game
``ml:topo``              the multi-level naive topological baseline on the
                         same default hierarchy
``ml:exact:hier:...``    either of the above on an explicit hierarchy
``ml:topo:hier:...``     (``hier:C1,..:T1,..[:cEPS]`` — the
                         :func:`repro.generators.hierarchy_from_spec`
                         grammar; the task's R and model are then ignored:
                         the multi-level game prices moves by the
                         hierarchy alone)
``sleep:SECONDS``        test/diagnostic hook: sleeps, then reports cost 0
``crash``                test/diagnostic hook: kills the executing
                         process (``os._exit``) — exercises worker
                         crash isolation end to end
=======================  ====================================================

Hardness-workload methods (the Theorems 2-4 reductions as measurable
strategies; each rebuilds its reduction from the task's DAG spec string
and cross-checks the analytic cost against the simulator at runtime):

=======================  ====================================================
name                     behaviour (required DAG spec in parentheses)
=======================  ====================================================
``hampath:decide``       (``hampath:GRAPH``) Theorem 2 run backwards:
                         Held-Karp over visit orders, verdict vs the
                         decision threshold, ground truth from the
                         independent Hamiltonian solver in ``extra``
``hampath:cd``           (``hampath:GRAPH``) Appendix B: the optimal
                         order replayed on the Delta=2 constant-degree
                         transform (oneshot; cost must be identical)
``group:hk``             (``hampath:GRAPH``) exact visit-order optimum
                         by Held-Karp subset DP
``group:brute``          (``hampath:GRAPH``) permutation enumeration
                         (tiny N; the order-solver oracle)
``group:nn2opt``         (``hampath:GRAPH``) nearest-neighbour + 2-opt
                         — the scalable heuristic order
``vc:opt``               (``vc:GRAPH[:kK]``) Theorem 3: the strategy
                         driven by an exact minimum vertex cover
``vc:2approx``           (``vc:GRAPH[:kK]``) the maximal-matching
                         2-approximate cover strategy (the UGC factor)
``grid:greedy``          (``ggrid:LxK``) Theorem 4: the actual
                         group-level greedy walking the Figure 8 grid
``grid:opt``             (``ggrid:LxK``) the paper's diagonal sweep
``grid:cdgreedy``        (``ggrid:LxK``) both of the above on the
``grid:cdopt``           Appendix B Delta=2 transform of the grid
``table1:probe``         (any 1-source DAG) Table 1: each operation
                         priced by live single moves, asserted against
                         the declared :class:`CostModel`
``appendixc``            (any small DAG) Appendix C: exact optimum vs
                         the blue-sink and super-source conventions
=======================  ====================================================
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from ..reductions.hampath import HamPathReduction

from ..core.instance import PebblingInstance
from ..core.simulator import PebblingSimulator
from .spec import TaskSpec

__all__ = ["MethodOutcome", "resolve_method", "method_names"]


@dataclass(frozen=True)
class MethodOutcome:
    """What a method reports back: exact cost, schedule length, extras."""

    cost: Fraction
    n_moves: Optional[int] = None
    extra: Dict[str, str] = field(default_factory=dict)


MethodFn = Callable[[PebblingInstance, TaskSpec], MethodOutcome]


def _run_baseline(inst: PebblingInstance, task: TaskSpec) -> MethodOutcome:
    from ..heuristics import topological_schedule
    from ..solvers.bounds import upper_bound_naive

    sched = topological_schedule(inst)
    res = PebblingSimulator(inst).run(sched, require_complete=True)
    bound = upper_bound_naive(inst.dag, inst.model)
    return MethodOutcome(
        cost=res.cost, n_moves=len(sched), extra={"naive_bound": str(bound)}
    )


def _run_greedy(rule: Optional[str]) -> MethodFn:
    def run(inst: PebblingInstance, task: TaskSpec) -> MethodOutcome:
        from ..heuristics import greedy_pebble

        result = greedy_pebble(inst, rule) if rule else greedy_pebble(inst)
        return MethodOutcome(
            cost=result.cost,
            n_moves=len(result.schedule),
            extra={"rule": result.rule.value},
        )

    return run


_EVICTION = {
    "belady": "FurthestNextUse",
    "lru": "LeastRecentlyUsed",
    "min-uses": "MinRemainingUses",
}


def _run_fixed_order(policy: str) -> MethodFn:
    seed = None
    if policy.startswith("random"):
        try:
            seed = int(policy[len("random"):] or 0)
        except ValueError:
            raise ValueError(
                f"unknown eviction policy {policy!r}: random[SEED] needs "
                f"an integer seed"
            ) from None
    elif policy not in _EVICTION:
        raise ValueError(f"unknown eviction policy {policy!r}")

    def run(inst: PebblingInstance, task: TaskSpec) -> MethodOutcome:
        from .. import heuristics

        if seed is not None:
            eviction = heuristics.RandomEviction(seed=seed)
        else:
            eviction = getattr(heuristics, _EVICTION[policy])()
        sched = heuristics.fixed_order_schedule(inst, eviction=eviction)
        res = PebblingSimulator(inst).run(sched, require_complete=True)
        return MethodOutcome(cost=res.cost, n_moves=len(sched), extra={"eviction": policy})

    return run


def _run_beam(width: int) -> MethodFn:
    def run(inst: PebblingInstance, task: TaskSpec) -> MethodOutcome:
        from ..heuristics import beam_search_pebble

        result = beam_search_pebble(inst, beam_width=width)
        return MethodOutcome(
            cost=result.cost,
            n_moves=len(result.schedule),
            extra={"beam_width": str(width), "expanded": str(result.expanded)},
        )

    return run


def _run_local_search(max_evaluations: int) -> MethodFn:
    def run(inst: PebblingInstance, task: TaskSpec) -> MethodOutcome:
        from ..heuristics import greedy_pebble, improve_order

        start = greedy_pebble(inst)
        result = improve_order(
            inst, order=start.order, max_evaluations=max_evaluations, seed=1
        )
        return MethodOutcome(
            cost=result.cost,
            n_moves=len(result.schedule),
            extra={
                "initial_cost": str(result.initial_cost),
                "evaluations": str(result.evaluations),
                "improvements": str(result.improvements),
            },
        )

    return run


def _run_exact(engine: str) -> MethodFn:
    def run(inst: PebblingInstance, task: TaskSpec) -> MethodOutcome:
        from ..solvers.exact import solve_optimal

        result = solve_optimal(inst, return_schedule=True, engine=engine)
        return MethodOutcome(
            cost=result.cost,
            n_moves=result.length,
            extra={
                "expanded": str(result.expanded),
                "engine": engine,
                "heuristic": result.heuristic,
            },
        )

    return run


def _run_tradeoff_opt(inst: PebblingInstance, task: TaskSpec) -> MethodOutcome:
    from ..gadgets.tradeoff import (
        opt_tradeoff_formula,
        optimal_tradeoff_schedule,
        tradeoff_dag,
    )

    kind, _, arg = task.dag.partition(":")
    if kind != "tradeoff":
        raise ValueError(
            f"method 'tradeoff-opt' needs a tradeoff:DxN DAG spec, got {task.dag!r}"
        )
    d, _, n = arg.partition("x")
    td = tradeoff_dag(int(d), int(n))
    sched = optimal_tradeoff_schedule(td, inst.red_limit, inst.model)
    res = PebblingSimulator(inst).run(sched, require_complete=True)
    formula = opt_tradeoff_formula(td, inst.red_limit, inst.model)
    return MethodOutcome(
        cost=res.cost, n_moves=len(sched), extra={"paper_formula": str(formula)}
    )


def _run_multilevel(kind: str, hier: Optional[str]) -> MethodFn:
    def run(inst: PebblingInstance, task: TaskSpec) -> MethodOutcome:
        from ..generators.specs import hierarchy_from_spec
        from ..multilevel import (
            HierarchySpec,
            MultilevelInstance,
            MultilevelSimulator,
            multilevel_topological_schedule,
        )

        if hier is not None:
            spec = hierarchy_from_spec(hier)
        else:
            spec = HierarchySpec(
                capacities=(inst.red_limit, None), transfer_costs=(Fraction(1),)
            )
        ml = MultilevelInstance(dag=inst.dag, spec=spec)
        caps = ",".join("inf" if c is None else str(c) for c in spec.capacities)
        extra = {"levels": str(spec.levels), "capacities": caps}
        if kind == "exact":
            from ..solvers.multilevel import solve_multilevel_optimal

            result = solve_multilevel_optimal(ml, return_schedule=True)
            extra["expanded"] = str(result.expanded)
            return MethodOutcome(
                cost=result.cost, n_moves=result.length, extra=extra
            )
        sched = multilevel_topological_schedule(ml)
        res = MultilevelSimulator(ml).run(sched, require_complete=True)
        extra["peak_usage"] = ",".join(map(str, res.peak_usage))
        return MethodOutcome(cost=res.cost, n_moves=res.steps, extra=extra)

    return run


# --------------------------------------------------------------------- #
# hardness-workload methods (Theorems 2-4, Appendices B/C, Tables)
# --------------------------------------------------------------------- #


def _spec_arg(task: TaskSpec, expected: str) -> str:
    """The argument of a ``expected:...`` DAG spec; raises otherwise."""
    kind, _, arg = task.dag.partition(":")
    if kind != expected or not arg:
        raise ValueError(
            f"method {task.method!r} needs a {expected}:... DAG spec, "
            f"got {task.dag!r}"
        )
    return arg


def _hampath_reduction_for(
    task: TaskSpec, inst: PebblingInstance
) -> "tuple[object, HamPathReduction]":
    from ..generators.specs import graph_from_spec
    from ..reductions.hampath import hampath_reduction

    graph = graph_from_spec(_spec_arg(task, "hampath"))
    red = hampath_reduction(graph, inst.model, epsilon=inst.epsilon)
    return graph, red


def _simulated_order_cost(
    red: HamPathReduction, order: "Sequence[int]"
) -> "tuple[Fraction, int]":
    """Replay the canonical strategy for ``order`` through the simulator
    (on the reduction's own instance — the H2C variant for base/compcost)
    and return (cost, moves)."""
    sched = red.schedule_for_order(order)
    res = PebblingSimulator(red.instance()).run(sched, require_complete=True)
    return res.cost, len(sched)


def _run_hampath_decide(inst: PebblingInstance, task: TaskSpec) -> MethodOutcome:
    from ..npc.hamiltonian import has_hamiltonian_path

    graph, red = _hampath_reduction_for(task, inst)
    cost, order = red.optimal_order()
    sim_cost, n_moves = _simulated_order_cost(red, order)
    if sim_cost != cost:
        raise RuntimeError(
            f"hampath formula cost {cost} != simulated cost {sim_cost}"
        )
    threshold = red.decision_threshold()
    verdict = cost <= threshold
    truth = has_hamiltonian_path(graph)
    return MethodOutcome(
        cost=cost,
        n_moves=n_moves,
        extra={
            "threshold": str(threshold),
            "verdict": "HAM" if verdict else "no",
            "truth": "HAM" if truth else "no",
            "gap": str(cost - threshold),
            "adjacent_pairs": str(red.adjacent_consecutive(order)),
        },
    )


def _run_hampath_cd(inst: PebblingInstance, task: TaskSpec) -> MethodOutcome:
    from ..core.models import Model
    from ..npc.hamiltonian import has_hamiltonian_path
    from ..reductions.constant_degree import constant_degree_system

    if inst.model is not Model.ONESHOT:
        raise ValueError("method 'hampath:cd' plays the oneshot model only")
    graph, red = _hampath_reduction_for(task, inst)
    cd = constant_degree_system(red.system, layers=3)
    plain_cost, order = red.optimal_order()
    sched = cd.emit_visit_schedule(order, "oneshot")
    res = PebblingSimulator(cd.instance("oneshot")).run(sched, require_complete=True)
    return MethodOutcome(
        cost=res.cost,
        n_moves=len(sched),
        extra={
            "plain_cost": str(plain_cost),
            "identical": str(res.cost == plain_cost),
            "max_indegree": str(cd.dag.max_indegree),
            "threshold": str(red.decision_threshold()),
            "truth": "HAM" if has_hamiltonian_path(graph) else "no",
        },
    )


def _run_group_order(which: str) -> MethodFn:
    def run(inst: PebblingInstance, task: TaskSpec) -> MethodOutcome:
        from ..solvers.group import (
            brute_force_min_order,
            held_karp_min_order,
            nearest_neighbor_order,
            two_opt_improve,
        )

        _, red = _hampath_reduction_for(task, inst)
        start, trans, offset = red.transition_matrix()
        if which == "hk":
            path_cost, order = held_karp_min_order(start, trans)
        elif which == "brute":
            path_cost, order = brute_force_min_order(start, trans)
        else:  # nn2opt
            _, nn_order = nearest_neighbor_order(start, trans)
            path_cost, order = two_opt_improve(nn_order, start, trans)
        cost = path_cost + offset
        sim_cost, n_moves = _simulated_order_cost(red, order)
        if sim_cost != cost:
            raise RuntimeError(
                f"order-solver cost {cost} != simulated cost {sim_cost}"
            )
        return MethodOutcome(
            cost=cost,
            n_moves=n_moves,
            extra={
                "optimizer": which,
                "order": "".join(map(str, order)) if red.n <= 10 else str(order),
                "adjacent_pairs": str(red.adjacent_consecutive(order)),
            },
        )

    return run


def _run_vc(which: str) -> MethodFn:
    def run(inst: PebblingInstance, task: TaskSpec) -> MethodOutcome:
        from ..generators.specs import graph_from_spec, split_vc_spec
        from ..npc.vertex_cover import min_vertex_cover, vertex_cover_2approx
        from ..reductions.vertex_cover import vertex_cover_reduction

        graph_spec, k = split_vc_spec(_spec_arg(task, "vc"))
        graph = graph_from_spec(graph_spec)
        red = vertex_cover_reduction(graph, k)
        cover = min_vertex_cover(graph) if which == "opt" else vertex_cover_2approx(graph)
        seq = red.sequence_for_cover(cover)
        sched = red.schedule_for_sequence(seq, inst.model)
        cost = PebblingSimulator(red.instance(inst.model)).run(
            sched, require_complete=True
        ).cost
        return MethodOutcome(
            cost=cost,
            n_moves=len(sched),
            extra={
                "cover_size": str(len(cover)),
                "k_common": str(red.k_common),
                "dominant_term": str(red.dominant_term(len(cover))),
                "cover_roundtrip": str(red.implied_cover(seq) == frozenset(cover)),
            },
        )

    return run


def _run_grid(which: str) -> MethodFn:
    def run(inst: PebblingInstance, task: TaskSpec) -> MethodOutcome:
        from ..reductions.constant_degree import constant_degree_system
        from ..reductions.greedy_grid import (
            greedy_grid_construction,
            grid_group_greedy,
        )

        arg = _spec_arg(task, "ggrid")
        l, _, kc = arg.partition("x")
        c = greedy_grid_construction(int(l), int(kc))
        extra: Dict[str, str] = {
            "n_nodes": str(c.system.dag.n_nodes),
            "k_common": str(c.k_common),
        }
        if which in ("greedy", "opt"):
            if which == "greedy":
                sched, seq = grid_group_greedy(c, inst.model)
                extra["followed_prediction"] = str(
                    seq == c.predicted_greedy_sequence()
                )
            else:
                seq = c.optimal_sequence()
                sched = c.schedule_for_sequence(seq, inst.model)
            res = PebblingSimulator(c.instance(inst.model)).run(
                sched, require_complete=True
            )
            return MethodOutcome(cost=res.cost, n_moves=len(sched), extra=extra)
        # cdgreedy / cdopt: the Appendix B Delta=2 transform of the grid
        cd = constant_degree_system(c.system, layers=2)
        seq = (
            c.predicted_greedy_sequence()
            if which == "cdgreedy"
            else c.optimal_sequence()
        )
        sched = cd.emit_visit_schedule(seq, inst.model)
        res = PebblingSimulator(cd.instance(inst.model)).run(
            sched, require_complete=True
        )
        extra["n_nodes"] = str(cd.dag.n_nodes)
        extra["max_indegree"] = str(cd.dag.max_indegree)
        return MethodOutcome(cost=res.cost, n_moves=len(sched), extra=extra)

    return run


def _run_table1_probe(inst: PebblingInstance, task: TaskSpec) -> MethodOutcome:
    from ..core.dag import ComputationDAG
    from ..core.errors import IllegalMoveError
    from ..core.models import cost_model_for
    from ..core.moves import Compute, Delete, Load, Store

    dag = ComputationDAG(nodes=["x"])
    probe = PebblingInstance(
        dag=dag, model=inst.model, red_limit=1, epsilon=inst.epsilon
    )
    sim = PebblingSimulator(probe)
    total = Fraction(0)

    state = sim.initial_state()
    state, compute_cost = sim.step(state, Compute("x"))
    state, store_cost = sim.step(state, Store("x"))
    state, load_cost = sim.step(state, Load("x"))
    total += compute_cost + store_cost + load_cost
    n_moves = 3
    try:
        _, delete_cost = sim.step(state, Delete("x"))
        delete = str(delete_cost)
        total += delete_cost
        n_moves += 1
    except IllegalMoveError:
        delete = "inf"
    try:
        s2 = sim.initial_state()
        s2, _ = sim.step(s2, Compute("x"))
        s2, _ = sim.step(s2, Store("x"))
        sim.step(s2, Compute("x"))  # recomputation probe
        compute = str(compute_cost)
    except IllegalMoveError:
        compute = f"{compute_cost},inf,inf,..."

    row = {
        "model": inst.model.value,
        "blue_to_red": str(load_cost),
        "red_to_blue": str(store_cost),
        "compute": compute,
        "delete": delete,
    }
    declared = cost_model_for(inst.model).table1_row()
    extra = dict(row)
    extra["matches_declared"] = str(row == declared)
    return MethodOutcome(cost=total, n_moves=n_moves, extra=extra)


def _run_appendix_c(inst: PebblingInstance, task: TaskSpec) -> MethodOutcome:
    from ..gadgets.transforms import (
        add_super_source,
        finalize_sinks_blue,
        lift_schedule_to_super_source,
    )
    from ..solvers.exact import solve_optimal

    opt = solve_optimal(inst)
    blue_final = finalize_sinks_blue(inst, opt.schedule)
    blue_cost = PebblingSimulator(inst).run(blue_final, require_complete=True).cost
    lifted_inst = PebblingInstance(
        dag=add_super_source(inst.dag),
        model=inst.model,
        red_limit=inst.red_limit + 1,
        epsilon=inst.epsilon,
    )
    lifted_cost = PebblingSimulator(lifted_inst).run(
        lift_schedule_to_super_source(opt.schedule), require_complete=True
    ).cost
    lifted_opt = solve_optimal(lifted_inst, return_schedule=False).cost
    return MethodOutcome(
        cost=opt.cost,
        n_moves=opt.length,
        extra={
            "blue_sinks_cost": str(blue_cost),
            "n_sinks": str(len(inst.dag.sinks)),
            "super_source_lifted": str(lifted_cost),
            "super_source_opt": str(lifted_opt),
        },
    )


def _hong_kung_reference(dag_spec: str, red_limit: int) -> Optional[float]:
    """The Hong-Kung reference curve for ``dag_spec`` at R, if one applies.

    ``matmul:N[...]`` maps to :func:`repro.solvers.bounds.matmul_io_lower_bound`
    and ``butterfly:K`` (an FFT on 2^K inputs) to
    :func:`repro.solvers.bounds.fft_io_lower_bound`; every other workload
    has no registered curve and returns None.
    """
    from ..solvers.bounds import fft_io_lower_bound, matmul_io_lower_bound

    kind, _, arg = dag_spec.partition(":")
    try:
        if kind == "matmul":
            return matmul_io_lower_bound(int(arg.split(":")[0]), red_limit)
        if kind == "butterfly":
            return fft_io_lower_bound(1 << int(arg), red_limit)
    except ValueError:
        return None
    return None


def _run_heuristic_portfolio(beam_width: Optional[int]) -> MethodFn:
    def run(inst: PebblingInstance, task: TaskSpec) -> MethodOutcome:
        from .. import heuristics

        costs: Dict[str, Fraction] = {}
        moves: Dict[str, int] = {}
        for rule in _GREEDY_RULES:
            result = heuristics.greedy_pebble(inst, rule)
            costs[f"greedy:{rule}"] = result.cost
            moves[f"greedy:{rule}"] = len(result.schedule)
        for policy in ("belady", "min-uses"):
            eviction = getattr(heuristics, _EVICTION[policy])()
            sched = heuristics.fixed_order_schedule(inst, eviction=eviction)
            res = PebblingSimulator(inst).run(sched, require_complete=True)
            costs[f"fixed-order:{policy}"] = res.cost
            moves[f"fixed-order:{policy}"] = len(sched)
        if beam_width is not None:
            beam = heuristics.beam_search_pebble(inst, beam_width=beam_width)
            costs[f"beam:{beam_width}"] = beam.cost
            moves[f"beam:{beam_width}"] = len(beam.schedule)
        winner = min(costs, key=lambda k: (costs[k], k))
        extra = {f"cost[{k}]": str(v) for k, v in costs.items()}
        extra["winner"] = winner
        reference = _hong_kung_reference(task.dag, inst.red_limit)
        if reference is not None:
            extra["hong_kung_bound"] = repr(reference)
        return MethodOutcome(cost=costs[winner], n_moves=moves[winner], extra=extra)

    return run


def _run_sleep(seconds: float) -> MethodFn:
    def run(inst: PebblingInstance, task: TaskSpec) -> MethodOutcome:
        time.sleep(seconds)
        return MethodOutcome(cost=Fraction(0), n_moves=0)

    return run


def _run_crash(inst: PebblingInstance, task: TaskSpec) -> MethodOutcome:
    import os

    os._exit(17)  # hard process death: no exception, no cleanup


_FIXED: Dict[str, MethodFn] = {
    "baseline": _run_baseline,
    "greedy": _run_greedy(None),
    "exact": _run_exact("bits"),
    "exact:numpy": _run_exact("numpy"),
    "tradeoff-opt": _run_tradeoff_opt,
    "local-search": _run_local_search(2000),
    "heur:portfolio": _run_heuristic_portfolio(None),
    "ml:exact": _run_multilevel("exact", None),
    "ml:topo": _run_multilevel("topo", None),
    # hardness workloads (Theorems 2-4, appendices, tables)
    "hampath:decide": _run_hampath_decide,
    "hampath:cd": _run_hampath_cd,
    "group:hk": _run_group_order("hk"),
    "group:brute": _run_group_order("brute"),
    "group:nn2opt": _run_group_order("nn2opt"),
    "vc:opt": _run_vc("opt"),
    "vc:2approx": _run_vc("2approx"),
    "grid:greedy": _run_grid("greedy"),
    "grid:opt": _run_grid("opt"),
    "grid:cdgreedy": _run_grid("cdgreedy"),
    "grid:cdopt": _run_grid("cdopt"),
    "table1:probe": _run_table1_probe,
    "appendixc": _run_appendix_c,
    "crash": _run_crash,
}

_GREEDY_RULES = ("most-red-inputs", "fewest-blue-inputs", "red-ratio")


def resolve_method(name: str) -> MethodFn:
    """Look up a method by name (see module docstring for the catalogue)."""
    if name in _FIXED:
        return _FIXED[name]
    head, sep, arg = name.partition(":")
    if sep:
        if head == "ml":
            sub, sep2, hier = arg.partition(":")
            if sub in ("exact", "topo") and sep2 and hier.startswith("hier:"):
                from ..generators.specs import hierarchy_from_spec

                hierarchy_from_spec(hier)  # malformed specs must fail fast here
                return _run_multilevel(sub, hier)
        if head == "greedy" and arg in _GREEDY_RULES:
            return _run_greedy(arg)
        if head == "heur":
            sub, sep2, width = arg.partition(":")
            if sub == "portfolio" and sep2:
                if not width.isdigit() or int(width) < 1:
                    raise ValueError(
                        f"malformed method {name!r}: heur:portfolio:W needs "
                        f"a positive integer beam width"
                    )
                return _run_heuristic_portfolio(int(width))
        if head == "fixed-order":
            return _run_fixed_order(arg)
        if head == "beam":
            width = int(arg)
            if width < 1:
                raise ValueError(
                    f"malformed method {name!r}: beam:WIDTH needs a "
                    f"positive integer width"
                )
            return _run_beam(width)
        if head == "local-search":
            return _run_local_search(int(arg))
        if head == "sleep":
            seconds = float(arg)
            if not 0 <= seconds < math.inf:
                raise ValueError(
                    f"malformed method {name!r}: sleep:SECONDS needs a "
                    f"finite, non-negative number of seconds"
                )
            return _run_sleep(seconds)
    raise ValueError(
        f"unknown method {name!r}; known: {', '.join(method_names())}"
    )


def method_names() -> "list[str]":
    """Representative method names (parametrised families shown generically)."""
    return sorted(_FIXED) + [
        "greedy:" + r for r in _GREEDY_RULES
    ] + [
        "fixed-order:belady|lru|min-uses|randomN",
        "beam:WIDTH",
        "heur:portfolio:BEAMW",
        "local-search:EVALS",
        "ml:exact|topo:hier:CAPS:COSTS",
        "sleep:SECONDS",
    ]
