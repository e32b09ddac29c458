"""The batch workload: its cells, set-up and the timed op.

``batch-mixed`` runs two kinds of cell in one pass: the exact zoo
(:class:`ExactZoo`) and the heuristic kernels (:class:`HeurKernels`).
Each kind, and the workload that holds both, gives the same interface:
``cells`` (fixed), ``prepare()`` (import the package and build what the
op needs), ``op(cell, tr)`` (one timed operation, with a span around
each call into a layer) and ``check(cell, out)`` (whether the op's
answer is right, run outside the timed region).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, Optional, Tuple

from cells import KERNELS, MEMBERS, ZOO
from spans import OFF


class Outcome:
    """What one op returned, for the check and the per-pass totals."""

    __slots__ = ("cost", "schedule", "claimed", "report", "expanded", "generated")

    def __init__(self, cost: Fraction, schedule: Any = None, claimed: Any = None,
                 report: Any = None, expanded: int = 0, generated: int = 0) -> None:
        self.cost = cost
        self.schedule = schedule
        self.claimed = claimed
        self.report = report
        self.expanded = expanded
        self.generated = generated


def warm_up(workload: Any) -> None:
    """Run the workload's warm-up op; a wrong answer stops the set-up."""
    cell = workload.warm_cell
    if not workload.check(cell, workload.op(cell)):
        raise RuntimeError(f"{workload.name}: warm-up op {cell} failed its check")


class ExactZoo:
    """dag_from_spec -> solve_optimal (bits) -> validate_schedule per cell."""

    name = "exact-zoo"
    cells = ZOO
    warm_cell = ("h2c:4", "oneshot", 5, "2")

    def prepare(self) -> None:
        from repro import PebblingInstance, validate_schedule
        from repro.generators import dag_from_spec
        from repro.solvers import solve_optimal

        self._instance = PebblingInstance
        self._validate = validate_schedule
        self._build = dag_from_spec
        self._solve = solve_optimal
        for spec in {c[0] for c in self.cells}:
            self._build(spec)  # first builds import the gadget modules
        warm_up(self)

    def instance(self, cell: tuple, tr: Any) -> Any:
        spec, model, red, _ = cell
        with tr.span("generators.build"):
            dag = self._build(spec)
        return self._instance(dag=dag, model=model, red_limit=red)

    def op(self, cell: tuple, tr: Any = OFF) -> Outcome:
        inst = self.instance(cell, tr)
        with tr.span("solvers.solve"):
            res = self._solve(inst)
        with tr.span("core.audit"):
            report = self._validate(inst, res.schedule)
        return Outcome(res.cost, report=report, expanded=res.expanded,
                       generated=res.generated)

    def nosched(self, cell: tuple, tr: Any) -> None:
        """The same solve without trace reconstruction (traced runs only)."""
        inst = self.instance(cell, tr)
        with tr.span("solvers.solve_nosched"):
            self._solve(inst, return_schedule=False)

    def check(self, cell: tuple, out: Outcome) -> bool:
        report = out.report
        return (out.cost == Fraction(cell[3]) and report.ok
                and report.cost == out.cost)

    def pass_cost(self, costs: Dict[tuple, Fraction]) -> Fraction:
        return sum(costs.values(), Fraction(0))


class HeurKernels:
    """One ``heur:portfolio`` member on one kernel DAG per op."""

    name = "heur-kernels"
    cells = [(spec, red, member) for spec, red in KERNELS for member in MEMBERS]
    warm_cell = ("butterfly:3", 4, "greedy:most-red-inputs")

    def prepare(self) -> None:
        from repro import PebblingInstance, PebblingSimulator
        from repro import heuristics
        from repro.generators import dag_from_spec

        self._instance = PebblingInstance
        self._simulator = PebblingSimulator
        self._build = dag_from_spec
        self._greedy = heuristics.greedy_pebble
        self._fixed = heuristics.fixed_order_schedule
        self._evictions = {"belady": heuristics.FurthestNextUse,
                           "min-uses": heuristics.MinRemainingUses}
        for spec, _ in KERNELS:
            dag_from_spec(spec)
        warm_up(self)

    def op(self, cell: tuple, tr: Any = OFF) -> Outcome:
        spec, red, member = cell
        with tr.span("generators.build"):
            dag = self._build(spec)
        inst = self._instance(dag=dag, model="oneshot", red_limit=red)
        kind, _, arg = member.partition(":")
        if kind == "greedy":
            with tr.span("heuristics.greedy"):
                result = self._greedy(inst, arg)
            return Outcome(result.cost, schedule=result.schedule,
                           claimed=(inst, result.cost))
        with tr.span("heuristics.evict"):
            schedule = self._fixed(inst, eviction=self._evictions[arg]())
        with tr.span("core.simulate"):
            res = self._simulator(inst).run(schedule, require_complete=True)
        return Outcome(res.cost, schedule=schedule)

    def check(self, cell: tuple, out: Outcome) -> bool:
        if out.claimed is None:  # replayed to completion inside the op
            return True
        # greedy replays its own schedule; replay it again independently
        inst, claimed = out.claimed
        res = self._simulator(inst).run(out.schedule, require_complete=True)
        return res.cost == claimed

    def pass_cost(self, costs: Dict[tuple, Fraction]) -> Fraction:
        """Sum over kernel DAGs of the best member cost (the portfolio's answer)."""
        best: Dict[Tuple[str, int], Optional[Fraction]] = {}
        for (spec, red, _), cost in costs.items():
            prev = best.get((spec, red))
            best[(spec, red)] = cost if prev is None else min(prev, cost)
        return sum(best.values(), Fraction(0))


class BatchMixed:
    """The zoo's exact cells and the kernels' heuristic cells, one pass.

    A cell is (kind, cell of that kind): kind 0 is :class:`ExactZoo`,
    kind 1 :class:`HeurKernels`; each kind keeps its own op and check.
    """

    name = "batch-mixed"

    def __init__(self) -> None:
        self.kinds = (ExactZoo(), HeurKernels())
        self.cells = [(k, c) for k, kind in enumerate(self.kinds) for c in kind.cells]

    def prepare(self) -> None:
        for kind in self.kinds:
            kind.prepare()

    @staticmethod
    def exact(cell: tuple) -> bool:
        return cell[0] == 0

    def op(self, cell: tuple, tr: Any = OFF) -> Outcome:
        return self.kinds[cell[0]].op(cell[1], tr)

    def nosched(self, cell: tuple, tr: Any) -> None:
        self.kinds[0].nosched(cell[1], tr)

    def check(self, cell: tuple, out: Outcome) -> bool:
        return self.kinds[cell[0]].check(cell[1], out)

    def pass_cost(self, costs: Dict[tuple, Fraction]) -> Fraction:
        """The zoo's optima plus the kernels' best member costs."""
        return sum((kind.pass_cost({c: v for (k, c), v in costs.items() if k == i})
                    for i, kind in enumerate(self.kinds)), Fraction(0))


WORKLOADS = {BatchMixed.name: BatchMixed}
