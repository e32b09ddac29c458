"""Named experiment specs: the registry behind ``repro-pebble bench``.

The built-in specs are the declarative ports of the ``benchmarks/``
scripts — each former hand-written loop is now one
:class:`~repro.experiments.ExperimentSpec` here, and the script keeps
only its assertions.  Downstream code registers its own specs with
:func:`register_spec`.

Specs can also carry **assertion suites**: functions registered with
:func:`register_check` that receive the spec's :class:`RunResult` list
and raise :class:`AssertionError` on violation.  ``repro-pebble bench
run`` executes them after every run (``--no-check`` skips), which is
what turns the paper's hardness theorems — decision thresholds, the
``2k'|VC|`` accounting, the greedy-defeating grid gap — into
regression gates instead of print statements.

Examples
--------
The built-ins are importable by name; each knows its grid size:

>>> from repro.experiments import get_spec
>>> smoke = get_spec("smoke")
>>> smoke.name, smoke.n_tasks
('smoke', 12)

Names are unique — re-registering without ``replace=True`` refuses:

>>> from repro.experiments.registry import register_spec
>>> register_spec(smoke)
Traceback (most recent call last):
    ...
ValueError: experiment spec 'smoke' already registered

Assertion suites attach by spec name and are looked up the same way:

>>> from repro.experiments.registry import checks_for
>>> len(checks_for("hardness-smoke")) >= 1
True
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Optional

from .results import RunResult
from .spec import ExperimentSpec

__all__ = [
    "register_spec",
    "get_spec",
    "all_specs",
    "register_check",
    "checks_for",
    "run_spec_checks",
    "BUILTIN_SPECS",
]

_REGISTRY: Dict[str, ExperimentSpec] = {}
_CHECKS: Dict[str, List[Callable[[List[RunResult]], None]]] = {}


def register_spec(spec: ExperimentSpec, *, replace: bool = False) -> ExperimentSpec:
    """Add a spec to the registry (name collisions raise unless ``replace``)."""
    if not replace and spec.name in _REGISTRY:
        raise ValueError(f"experiment spec {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def register_check(name: str) -> Callable:
    """Decorator: attach an assertion suite to the spec called ``name``.

    The function receives the spec's full result list (in task order)
    and must raise :class:`AssertionError` for any violated invariant.
    """

    def deco(fn: Callable[[List[RunResult]], None]) -> Callable[[List[RunResult]], None]:
        _CHECKS.setdefault(name, []).append(fn)
        return fn

    return deco


def checks_for(name: str) -> List[Callable[[List[RunResult]], None]]:
    return list(_CHECKS.get(name, ()))


def run_spec_checks(name: str, results: List[RunResult]) -> int:
    """Run every check registered for spec ``name``; returns the count.

    Raises ``AssertionError`` (with the offending check's name prefixed)
    on the first violation.
    """
    checks = checks_for(name)
    for fn in checks:
        try:
            fn(results)
        except AssertionError as exc:
            raise AssertionError(f"[{name}/{fn.__name__}] {exc}") from None
    return len(checks)


def get_spec(name: str) -> ExperimentSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise KeyError(f"unknown experiment spec {name!r}; known: {known}") from None


def all_specs(tag: Optional[str] = None) -> List[ExperimentSpec]:
    specs = sorted(_REGISTRY.values(), key=lambda s: s.name)
    if tag is not None:
        specs = [s for s in specs if tag in s.tags]
    return specs


# ---------------------------------------------------------------------------
# Built-in specs: declarative ports of the benchmarks/ scripts.
# ---------------------------------------------------------------------------

BUILTIN_SPECS = (
    ExperimentSpec(
        name="smoke",
        description="Tiny end-to-end grid for CI smoke runs (seconds, not minutes)",
        dags=("pyramid:3", "chain:6"),
        models=("oneshot", "base"),
        methods=("baseline", "greedy", "exact"),
        red_limits=("min",),
        tags=("ci", "fast"),
    ),
    ExperimentSpec(
        name="sec3-bounds",
        description="Section 3: naive topological cost vs the (2*Delta+1)*n bound, all models",
        dags=("pyramid:4", "grid:4x4", "butterfly:3", "tree:8"),
        models=("base", "oneshot", "nodel", "compcost"),
        methods=("baseline",),
        red_limits=("min",),
        tags=("paper", "bounds"),
    ),
    ExperimentSpec(
        name="hong-kung",
        description="Hong-Kung context: matmul/FFT I/O traffic across cache sizes",
        dags=("matmul:4", "butterfly:4"),
        models=("oneshot",),
        methods=("fixed-order:belady",),
        red_limits=(4, 8, 16, 32),
        tags=("paper", "kernels"),
    ),
    ExperimentSpec(
        name="greedy-rules",
        description="Ablation: the three Section 8 greedy rules vs the exact optimum",
        dags=(
            "tasks:3x2#r3",
            "pyramid:3#r3",
            "pyramid:4#r4",
            "grid:3x3#r3",
            "layered:3-3-2:d2:s9#r3",
        ),
        models=("oneshot",),
        methods=(
            "greedy:most-red-inputs",
            "greedy:fewest-blue-inputs",
            "greedy:red-ratio",
            "exact",
        ),
        tags=("paper", "ablation"),
    ),
    ExperimentSpec(
        name="eviction",
        description="Ablation: Belady vs LRU / min-uses / random eviction under memory pressure",
        dags=("matmul:3#r5", "butterfly:4#r5", "grid:5x5#r3"),
        models=("oneshot",),
        methods=(
            "fixed-order:belady",
            "fixed-order:lru",
            "fixed-order:min-uses",
            "fixed-order:random7",
        ),
        tags=("ablation",),
    ),
    ExperimentSpec(
        name="fig4-tradeoff",
        description="Figures 3-4: the linear time-memory tradeoff of the chain gadget (d=6, n=40)",
        dags=("tradeoff:6x40",),
        models=("oneshot",),
        methods=("tradeoff-opt",),
        red_limits=(8, 9, 10, 11, 12, 13, 14),
        tags=("paper", "tradeoff"),
    ),
    ExperimentSpec(
        name="tradeoff-exact",
        description=(
            "Exhaustive confirmation of the Figure 3/4 alternating strategy: "
            "exact optimum vs the paper's closed form on small tradeoff gadgets"
        ),
        dags=("tradeoff:2x6#r4", "tradeoff:2x6#r5", "tradeoff:2x6#r6"),
        models=("oneshot",),
        methods=("tradeoff-opt", "exact"),
        tags=("paper", "tradeoff", "fast"),
    ),
    ExperimentSpec(
        name="multilevel-smoke",
        description=(
            "Multi-level game smoke: packed-state exact solver vs the parking "
            "baseline on 2- and 3-level hierarchies (ml:exact on the default "
            "2-level hierarchy must match plain exact on the base model)"
        ),
        dags=("pyramid:3#r3", "chain:6#r2"),
        models=("base",),
        methods=(
            "ml:exact",
            "ml:topo",
            "ml:exact:hier:3,6:1,4",
            "ml:topo:hier:3,6:1,4",
            "exact",
        ),
        tags=("ci", "fast", "multilevel"),
    ),
    ExperimentSpec(
        name="engines-smoke",
        description=(
            "Engine-agreement smoke: the batched numpy frontier must match "
            "the scalar exact kernel cell for cell (the registered check "
            "fails the run on any drift)"
        ),
        dags=("pyramid:3#r3", "grid:3x3#r3"),
        models=("oneshot", "base"),
        methods=("exact", "exact:numpy"),
        tags=("ci", "fast", "engines"),
    ),
    ExperimentSpec(
        name="beam-ablation",
        description="Ablation: beam width vs optimality on classic kernels",
        dags=("pyramid:3#r3", "grid:4x4#r3"),
        models=("oneshot",),
        methods=("greedy", "beam:1", "beam:4", "beam:16", "exact"),
        tags=("ablation",),
    ),
    # ------------------------------------------------------------------ #
    # hardness-theorem workloads (Theorems 2-4, appendices, tables)
    # ------------------------------------------------------------------ #
    ExperimentSpec(
        name="thm2-hampath",
        description=(
            "Theorem 2: pebbling cost vs the Hamiltonian-path decision "
            "threshold on planted and random graphs, all four models"
        ),
        dags=(
            "hampath:ham:8:e4:s0",
            "hampath:ham:8:e4:s1",
            "hampath:gnp:8:0.3:s0",
            "hampath:gnp:8:0.3:s1",
            "hampath:gnp:8:0.3:s2",
            "hampath:gnp:8:0.3:s3",
        ),
        models=("oneshot", "nodel", "base", "compcost"),
        methods=("hampath:decide",),
        tags=("paper", "hardness"),
    ),
    ExperimentSpec(
        name="thm2-ordering",
        description=(
            "The visit-order solvers as strategies on the Theorem 2 "
            "construction: Held-Karp vs brute force vs NN+2-opt"
        ),
        dags=(
            "hampath:gnp:7:0.35:s0",
            "hampath:gnp:7:0.35:s1",
            "hampath:gnp:7:0.35:s2",
        ),
        models=("oneshot", "nodel"),
        methods=("group:hk", "group:brute", "group:nn2opt"),
        tags=("hardness", "ablation"),
    ),
    ExperimentSpec(
        name="thm3-vertex-cover",
        description=(
            "Theorem 3: pebbling cost of the minimum-cover vs the "
            "2-approximate-cover strategy (the UGC inapproximability factor)"
        ),
        dags=(
            "vc:gnp:7:0.4:s0:k80",
            "vc:gnp:7:0.4:s1:k80",
            "vc:gnp:7:0.4:s2:k80",
            "vc:cycle:8:k80",
        ),
        models=("oneshot",),
        methods=("vc:opt", "vc:2approx"),
        tags=("paper", "hardness"),
    ),
    ExperimentSpec(
        name="thm3-ksweep",
        description=(
            "Theorem 3 dominant-term convergence: cost / 2k'|VC| -> 1 as "
            "the group size k grows (cycle C6)"
        ),
        dags=(
            "vc:cycle:6:k12",
            "vc:cycle:6:k30",
            "vc:cycle:6:k80",
            "vc:cycle:6:k200",
        ),
        models=("oneshot",),
        methods=("vc:opt",),
        tags=("paper", "hardness"),
    ),
    ExperimentSpec(
        name="thm4-greedy-grid",
        description=(
            "Theorem 4: the group-level greedy walks into the Figure 8 "
            "misguidance trap and loses Theta~(n) to the diagonal sweep"
        ),
        dags=("ggrid:3x6", "ggrid:4x12", "ggrid:5x20", "ggrid:6x30", "ggrid:7x45"),
        models=("oneshot",),
        methods=("grid:greedy", "grid:opt"),
        tags=("paper", "hardness"),
    ),
    ExperimentSpec(
        name="thm4-kprime",
        description=(
            "Theorem 4 anatomy: at fixed l the greedy cost is linear in "
            "k' while the optimum barely moves"
        ),
        dags=("ggrid:5x8", "ggrid:5x16", "ggrid:5x32"),
        models=("oneshot",),
        methods=("grid:greedy", "grid:opt"),
        tags=("hardness", "ablation"),
    ),
    ExperimentSpec(
        name="appendix-b-thm2",
        description=(
            "Appendix B: Theorem 2 at Delta=2 — the CD transform prices "
            "every visit order identically in oneshot"
        ),
        dags=(
            "hampath:gnp:5:0.45:s0",
            "hampath:gnp:5:0.45:s1",
            "hampath:gnp:5:0.45:s2",
            "hampath:gnp:5:0.45:s3",
        ),
        models=("oneshot",),
        methods=("hampath:cd",),
        tags=("paper", "hardness"),
    ),
    ExperimentSpec(
        name="appendix-b-thm4",
        description=(
            "Appendix B: Theorem 4 at Delta=2 — the greedy/optimal gap "
            "persists on the transformed grid"
        ),
        dags=("ggrid:3x6", "ggrid:4x12", "ggrid:5x20"),
        models=("oneshot",),
        methods=("grid:cdgreedy", "grid:cdopt"),
        tags=("paper", "hardness"),
    ),
    ExperimentSpec(
        name="appendix-c",
        description=(
            "Appendix C: blue-sink and super-source problem conventions "
            "are interchangeable (measured on exact optima)"
        ),
        dags=("pyramid:2", "grid:2x3", "tasks:2x2"),
        models=("oneshot",),
        methods=("appendixc",),
        tags=("paper", "hardness"),
    ),
    ExperimentSpec(
        name="fig1-cd",
        description=(
            "Figure 1: the CD gadget is free at its design budget but "
            "costs ~2 per layer one pebble short (pyramid contrast inline)"
        ),
        dags=("cd:3:1", "cd:3:2", "cd:3:3", "cd:3:4"),
        models=("oneshot",),
        methods=("exact",),
        red_limits=(3, 4),
        cells=(
            ("pyramid:3", "oneshot", "exact", 4),
            ("pyramid:3", "oneshot", "exact", 5),
        ),
        tags=("paper", "hardness", "gadgets"),
    ),
    ExperimentSpec(
        name="fig2-h2c",
        description=(
            "Figure 2: computing the guarded node costs exactly 4 at the "
            "design budget; extra pebbles relieve it monotonically to 0"
        ),
        dags=("h2c:4",),
        models=("oneshot", "base"),
        methods=("exact",),
        red_limits=(4, 5, 6, 7),
        tags=("paper", "hardness", "gadgets"),
    ),
    ExperimentSpec(
        name="lemma1-length",
        description=(
            "Lemma 1: optimal pebbling length stays O(Delta * n) in the "
            "models inside NP"
        ),
        dags=(
            "pyramid:3",
            "grid:3x3",
            "layered:3-3-2:d2:s1",
            "rand:8:0.35:d2:s2",
            "rand:9:0.3:d2:s5",
        ),
        models=("oneshot", "nodel", "compcost"),
        methods=("exact",),
        tags=("paper", "bounds"),
    ),
    ExperimentSpec(
        name="table1-models",
        description=(
            "Table 1: operation costs priced empirically by live single "
            "moves, asserted against the declared cost models"
        ),
        dags=("chain:1",),
        models=("base", "oneshot", "nodel", "compcost"),
        methods=("table1:probe",),
        tags=("paper", "fast"),
    ),
    ExperimentSpec(
        name="table2-properties",
        description=(
            "Table 2: optimal cost ranges, Lemma 1 lengths and greedy/opt "
            "ratios measured per model on small DAGs"
        ),
        dags=("pyramid:3", "grid:3x3", "layered:3-3-2:d2:s5"),
        models=("base", "oneshot", "nodel", "compcost"),
        methods=("exact", "greedy", "baseline"),
        tags=("paper", "bounds"),
    ),
    # ------------------------------------------------------------------ #
    # real-kernel workloads: the heuristics-only tier (exact search is
    # infeasible at these sizes; Hong-Kung curves are the yardstick)
    # ------------------------------------------------------------------ #
    ExperimentSpec(
        name="workloads-smoke",
        description=(
            "Real-kernel workloads for CI: the heuristic portfolio on "
            "blocked matmul / conv / attention / stencil / FFT cells, "
            "sanity-checked against the Hong-Kung lower bounds and a "
            "tiny exact anchor"
        ),
        dags=(
            "matmul:4:b2",
            "conv:6:3:c2",
            "attn:3:h2",
            "stencil:3x3:t2#r8",
            "butterfly:3",
        ),
        models=("oneshot",),
        methods=("heur:portfolio", "baseline"),
        red_limits=(4, 8),
        cells=(
            ("stencil:2x2:t1", "oneshot", "exact", 5),
            ("stencil:2x2:t1", "oneshot", "heur:portfolio", 5),
        ),
        tags=("ci", "fast", "kernels"),
    ),
    ExperimentSpec(
        name="matmul-blocked",
        description=(
            "Blocked vs naive matmul accumulation under the heuristic "
            "portfolio across cache sizes (Hong-Kung curve as floor)"
        ),
        dags=("matmul:4", "matmul:4:b1", "matmul:4:b2"),
        models=("oneshot",),
        methods=("heur:portfolio",),
        red_limits=(6, 9, 12),
        tags=("kernels", "ablation"),
    ),
    ExperimentSpec(
        name="conv-sweep",
        description=(
            "1-D convolution R-sweep under the heuristic portfolio "
            "(sliding-window reuse vs cache size)"
        ),
        dags=("conv:8:3", "conv:6:3:c2"),
        models=("oneshot",),
        methods=("heur:portfolio",),
        red_limits=(4, 6, 8),
        tags=("kernels",),
    ),
    ExperimentSpec(
        name="attn-sweep",
        description=(
            "Attention R-sweep under the heuristic portfolio (quadratic "
            "score matrix pressure vs cache size, 1 and 2 heads)"
        ),
        dags=("attn:3", "attn:3:h2"),
        models=("oneshot",),
        methods=("heur:portfolio",),
        red_limits=(4, 6, 8),
        tags=("kernels",),
    ),
    ExperimentSpec(
        name="hardness-smoke",
        description=(
            "Tiny Theorem 2/3/4 cells for CI: reduction-backed methods "
            "must agree with (or bracket) the exact bits solver"
        ),
        dags=("hampath:path:3", "hampath:star:4"),
        models=("oneshot", "nodel"),
        methods=("hampath:decide", "group:hk", "group:brute", "group:nn2opt"),
        cells=(
            ("hampath:path:3", "oneshot", "exact", "min"),
            ("hampath:path:3", "nodel", "exact", "min"),
            ("hampath:star:4", "nodel", "exact", "min"),
            ("hampath:star:4", "base", "hampath:decide", "min"),
            ("hampath:star:4", "compcost", "hampath:decide", "min"),
            ("vc:path:2:k4", "oneshot", "vc:opt", "min"),
            ("vc:path:2:k4", "oneshot", "vc:2approx", "min"),
            ("ggrid:2x1", "oneshot", "grid:greedy", "min"),
            ("ggrid:2x1", "oneshot", "grid:opt", "min"),
        ),
        tags=("ci", "fast", "hardness"),
    ),
)

for _spec in BUILTIN_SPECS:
    register_spec(_spec)


# ---------------------------------------------------------------------------
# Assertion suites: the theorems' claims as regression gates.
# ---------------------------------------------------------------------------


def _assert_all_ok(results: List[RunResult]) -> None:
    bad = [r for r in results if not r.ok]
    assert not bad, "failed cell(s): " + "; ".join(
        f"{r.dag}/{r.model}/{r.method}/R={r.red_limit}: "
        f"{r.status.value} {r.error or ''}".strip()
        for r in bad[:4]
    )


def _cells(results: List[RunResult], **coords: object) -> List[RunResult]:
    out = results
    for key, val in coords.items():
        out = [r for r in out if getattr(r, key) == val]
    return out


def _cell(results: List[RunResult], **coords: object) -> RunResult:
    found = _cells(results, **coords)
    assert len(found) == 1, f"expected exactly one cell for {coords}, got {len(found)}"
    return found[0]


@register_check("thm2-hampath")
def _check_thm2_decides(results: List[RunResult]) -> None:
    _assert_all_ok(results)
    verdicts = set()
    for r in results:
        assert r.extra["verdict"] == r.extra["truth"], (
            f"{r.dag} under {r.model}: pebbling says {r.extra['verdict']}, "
            f"truth is {r.extra['truth']}"
        )
        verdicts.add(r.extra["truth"])
        gap = Fraction(r.extra["gap"])
        if r.extra["truth"] == "HAM":
            assert gap == 0, f"{r.dag}/{r.model}: Hamiltonian instance has gap {gap}"
        else:
            floor = 1 if r.model == "nodel" else 2
            assert gap >= floor, f"{r.dag}/{r.model}: no-instance gap {gap} < {floor}"
    assert verdicts == {"HAM", "no"}, f"sweep does not separate: {verdicts}"


@register_check("thm2-ordering")
def _check_thm2_ordering(results: List[RunResult]) -> None:
    _assert_all_ok(results)
    for hk in _cells(results, method="group:hk"):
        brute = _cell(results, method="group:brute", dag=hk.dag, model=hk.model)
        nn = _cell(results, method="group:nn2opt", dag=hk.dag, model=hk.model)
        assert hk.cost_fraction == brute.cost_fraction, (
            f"{hk.dag}/{hk.model}: Held-Karp {hk.cost} != brute force {brute.cost}"
        )
        assert nn.cost_fraction >= hk.cost_fraction, (
            f"{hk.dag}/{hk.model}: NN+2-opt {nn.cost} beats the exact order "
            f"optimum {hk.cost}"
        )


@register_check("thm3-vertex-cover")
def _check_thm3_tracks_cover(results: List[RunResult]) -> None:
    _assert_all_ok(results)
    for opt in _cells(results, method="vc:opt"):
        approx = _cell(results, method="vc:2approx", dag=opt.dag, model=opt.model)
        for r in (opt, approx):
            assert r.extra["cover_roundtrip"] == "True", (
                f"{r.dag}: implied cover does not round-trip"
            )
            assert r.cost_fraction >= int(r.extra["dominant_term"]), (
                f"{r.dag}/{r.method}: cost {r.cost} below the 2k'|VC| term "
                f"{r.extra['dominant_term']}"
            )
        cost_ratio = float(approx.cost_fraction / opt.cost_fraction)
        size_ratio = int(approx.extra["cover_size"]) / int(opt.extra["cover_size"])
        assert cost_ratio <= size_ratio + 0.35, (
            f"{opt.dag}: pebbling ratio {cost_ratio:.3f} exceeds the "
            f"cover-size ratio {size_ratio:.3f} + slack"
        )


@register_check("thm3-ksweep")
def _check_thm3_converges(results: List[RunResult]) -> None:
    _assert_all_ok(results)
    ratios = [
        float(r.cost_fraction) / int(r.extra["dominant_term"]) for r in results
    ]
    assert ratios == sorted(ratios, reverse=True), (
        f"cost/2k'|VC| not monotone decreasing in k: {ratios}"
    )
    assert ratios[-1] < 1.05, f"not within 5% at the largest k: {ratios[-1]:.4f}"


def _greedy_opt_ratios(
    results: List[RunResult], greedy: str, opt: str
) -> "list[tuple[str, float, RunResult]]":
    """(dag, greedy/opt ratio, greedy row) triples in task (= size) order."""
    out = []
    for g in _cells(results, method=greedy):
        o = _cell(results, method=opt, dag=g.dag, model=g.model)
        assert o.cost_fraction > 0, f"{g.dag}: zero optimal cost"
        out.append((g.dag, float(g.cost_fraction / o.cost_fraction), g))
    return out


@register_check("thm4-greedy-grid")
def _check_thm4_misguided(results: List[RunResult]) -> None:
    _assert_all_ok(results)
    import math

    rows = _greedy_opt_ratios(results, "grid:greedy", "grid:opt")
    for dag, _, g in rows:
        assert g.extra["followed_prediction"] == "True", (
            f"{dag}: greedy did not follow the predicted misguided walk"
        )
    ratios = [ratio for _, ratio, _ in rows]
    assert ratios == sorted(ratios), f"greedy/opt ratio not growing: {ratios}"
    assert ratios[-1] > 3 * ratios[0], (
        f"gap does not scale: first {ratios[0]:.2f}, last {ratios[-1]:.2f}"
    )
    _, last_ratio, last = rows[-1]
    n = int(last.extra["n_nodes"])
    assert last_ratio / math.sqrt(n) > 0.5, (
        f"largest instance ratio {last_ratio:.2f} does not clear sqrt(n)"
    )


@register_check("thm4-kprime")
def _check_thm4_linear_in_kprime(results: List[RunResult]) -> None:
    _assert_all_ok(results)
    greedy = [r.cost_fraction for r in _cells(results, method="grid:greedy")]
    opt = [r.cost_fraction for r in _cells(results, method="grid:opt")]
    for a, b in zip(greedy, greedy[1:]):
        assert 1.7 < float(b / a) < 2.3, (
            f"greedy cost not ~linear in k': doubling k' scaled cost by "
            f"{float(b / a):.2f}"
        )
    assert float(opt[-1] / opt[0]) < 1.5, (
        f"optimum should barely notice k': {opt[0]} -> {opt[-1]}"
    )


@register_check("appendix-b-thm2")
def _check_appendix_b_thm2(results: List[RunResult]) -> None:
    _assert_all_ok(results)
    for r in results:
        assert r.extra["max_indegree"] == "2", f"{r.dag}: Delta != 2 after CD"
        assert r.extra["identical"] == "True", (
            f"{r.dag}: CD cost {r.cost} != plain cost {r.extra['plain_cost']}"
        )
        verdict = "HAM" if r.cost_fraction <= Fraction(r.extra["threshold"]) else "no"
        assert verdict == r.extra["truth"], (
            f"{r.dag}: transformed construction mis-decides ({verdict} vs "
            f"{r.extra['truth']})"
        )


@register_check("appendix-b-thm4")
def _check_appendix_b_thm4(results: List[RunResult]) -> None:
    _assert_all_ok(results)
    for r in results:
        assert r.extra["max_indegree"] == "2", f"{r.dag}: Delta != 2 after CD"
    ratios = [
        ratio for _, ratio, _ in
        _greedy_opt_ratios(results, "grid:cdgreedy", "grid:cdopt")
    ]
    assert ratios == sorted(ratios), f"transformed ratio not growing: {ratios}"
    assert ratios[-1] > 2 * ratios[0], (
        f"transformed gap does not scale: {ratios[0]:.2f} -> {ratios[-1]:.2f}"
    )


@register_check("appendix-c")
def _check_appendix_c(results: List[RunResult]) -> None:
    _assert_all_ok(results)
    for r in results:
        opt = r.cost_fraction
        blue = Fraction(r.extra["blue_sinks_cost"])
        assert opt <= blue <= opt + int(r.extra["n_sinks"]), (
            f"{r.dag}: blue-sink convention cost {blue} outside "
            f"[{opt}, {opt} + sinks]"
        )
        assert Fraction(r.extra["super_source_lifted"]) == opt, (
            f"{r.dag}: lifted schedule does not replay at the original cost"
        )
        assert Fraction(r.extra["super_source_opt"]) <= opt, (
            f"{r.dag}: super-source optimum exceeds the original optimum"
        )


@register_check("fig1-cd")
def _check_fig1_cliff(results: List[RunResult]) -> None:
    _assert_all_ok(results)
    cliffs = []
    for h in (1, 2, 3, 4):
        dag = f"cd:3:{h}"
        full = _cell(results, dag=dag, red_limit=4).cost_fraction
        starved = _cell(results, dag=dag, red_limit=3).cost_fraction
        assert full == 0, f"{dag}: not free at the design budget (cost {full})"
        cliff = starved - full
        assert cliff >= 2 * (h - 1), f"{dag}: cliff {cliff} below ~2(h-1)"
        cliffs.append(cliff)
    assert cliffs == sorted(cliffs) and cliffs[-1] > cliffs[0], (
        f"cliff does not grow with h: {cliffs}"
    )
    pyramid_cliff = (
        _cell(results, dag="pyramid:3", red_limit=4).cost_fraction
        - _cell(results, dag="pyramid:3", red_limit=5).cost_fraction
    )
    assert pyramid_cliff < cliffs[-1], (
        f"pyramid cliff {pyramid_cliff} not below the CD cliff {cliffs[-1]}"
    )


@register_check("fig2-h2c")
def _check_fig2_guarded_cost(results: List[RunResult]) -> None:
    _assert_all_ok(results)
    for model in ("oneshot", "base"):
        costs = [
            _cell(results, model=model, red_limit=r).cost_fraction
            for r in (4, 5, 6, 7)
        ]
        assert costs[0] == 4, f"{model}: guarded cost at design R is {costs[0]}, not 4"
        assert costs == sorted(costs, reverse=True), (
            f"{model}: relief not monotone: {costs}"
        )
        assert costs[-1] == 0, f"{model}: cost never reaches 0: {costs}"


@register_check("lemma1-length")
def _check_lemma1_lengths(results: List[RunResult]) -> None:
    from ..generators import dag_from_spec

    _assert_all_ok(results)
    delta_n: Dict[str, int] = {}
    for r in results:
        if r.dag not in delta_n:
            dag = dag_from_spec(r.dag)
            delta_n[r.dag] = max(1, dag.max_indegree * dag.n_nodes)
        ratio = r.n_moves / delta_n[r.dag]
        assert ratio <= 5.0, (
            f"{r.dag}/{r.model}: optimal length {r.n_moves} is "
            f"{ratio:.2f}x Delta*n (Lemma 1 allows < 5x)"
        )


@register_check("table1-models")
def _check_table1(results: List[RunResult]) -> None:
    _assert_all_ok(results)
    by_model = {r.model: r.extra for r in results}
    for model, row in by_model.items():
        assert row["matches_declared"] == "True", (
            f"{model}: empirical pricing disagrees with the declared CostModel"
        )
        assert row["blue_to_red"] == "1" and row["red_to_blue"] == "1"
    assert by_model["base"]["compute"] == "0"
    assert by_model["oneshot"]["compute"] == "0,inf,inf,..."
    assert by_model["nodel"]["delete"] == "inf"
    assert by_model["compcost"]["compute"] == "1/100"


@register_check("table2-properties")
def _check_table2(results: List[RunResult]) -> None:
    from ..core.models import Model
    from ..generators import dag_from_spec
    from ..solvers.bounds import trivial_lower_bound, upper_bound_naive

    _assert_all_ok(results)
    for exact in _cells(results, method="exact"):
        dag = dag_from_spec(exact.dag)
        model = Model.parse(exact.model)
        lo = trivial_lower_bound(dag, model, exact.red_limit)
        hi = upper_bound_naive(dag, model)
        assert lo <= exact.cost_fraction <= hi, (
            f"{exact.dag}/{exact.model}: optimum {exact.cost} outside "
            f"[{lo}, {hi}]"
        )
        if exact.model == "nodel":
            assert lo > 0, f"{exact.dag}: nodel lower bound should be positive"
        if exact.model in ("base", "oneshot"):
            assert lo == 0, f"{exact.dag}/{exact.model}: lower bound should be 0"
        if exact.model != "base":
            length_bound = (4 * dag.max_indegree + 4) * dag.n_nodes + 4
            assert exact.n_moves <= length_bound, (
                f"{exact.dag}/{exact.model}: optimal length {exact.n_moves} "
                f"exceeds the Lemma 1 bound {length_bound}"
            )
        greedy = _cell(results, method="greedy", dag=exact.dag, model=exact.model)
        assert greedy.cost_fraction >= exact.cost_fraction, (
            f"{exact.dag}/{exact.model}: greedy beats the exact optimum"
        )
        baseline = _cell(results, method="baseline", dag=exact.dag, model=exact.model)
        assert (
            exact.cost_fraction
            <= baseline.cost_fraction
            <= Fraction(baseline.extra["naive_bound"])
        ), f"{exact.dag}/{exact.model}: baseline outside [opt, (2D+1)n]"


@register_check("engines-smoke")
def _check_engines_smoke(results: List[RunResult]) -> None:
    """The numpy engine's cell must equal the scalar exact cell."""
    _assert_all_ok(results)
    for exact in _cells(results, method="exact"):
        alt = _cell(
            results, method="exact:numpy", dag=exact.dag, model=exact.model
        )
        assert alt.cost_fraction == exact.cost_fraction, (
            f"{exact.dag}/{exact.model}: exact:numpy returned "
            f"{alt.cost}, scalar exact returned {exact.cost}"
        )


@register_check("multilevel-smoke")
def _check_multilevel_smoke(results: List[RunResult]) -> None:
    """ml:exact on the default 2-level hierarchy is the base-model
    optimum, and no exact multi-level cell costs more than its parking
    baseline twin."""
    _assert_all_ok(results)
    for exact in _cells(results, method="exact"):
        ml = _cell(
            results, method="ml:exact", dag=exact.dag, model=exact.model,
            red_limit=exact.red_limit,
        )
        assert ml.cost_fraction == exact.cost_fraction, (
            f"{exact.dag}/R={exact.red_limit}: ml:exact returned {ml.cost}, "
            f"exact returned {exact.cost}"
        )
    for ml in results:
        if not ml.method.startswith("ml:exact"):
            continue
        twin = "ml:topo" + ml.method[len("ml:exact"):]
        topo = _cell(
            results, method=twin, dag=ml.dag, model=ml.model,
            red_limit=ml.red_limit,
        )
        assert ml.cost_fraction <= topo.cost_fraction, (
            f"{ml.dag}/R={ml.red_limit}: {ml.method} returned {ml.cost}, "
            f"above {twin}'s {topo.cost}"
        )


@register_check("tradeoff-exact")
def _check_tradeoff_exact(results: List[RunResult]) -> None:
    """The exact optimum equals the paper's closed form at every R."""
    _assert_all_ok(results)
    for exact in _cells(results, method="exact"):
        closed = _cell(
            results, method="tradeoff-opt", dag=exact.dag, model=exact.model,
            red_limit=exact.red_limit,
        )
        assert exact.cost_fraction == closed.cost_fraction, (
            f"{exact.dag}/R={exact.red_limit}: exact returned {exact.cost}, "
            f"the closed form gives {closed.cost}"
        )


def _portfolio_members(r: RunResult) -> Dict[str, Fraction]:
    """The per-member costs a ``heur:portfolio`` cell reports in extra."""
    return {
        key[len("cost["):-1]: Fraction(val)
        for key, val in r.extra.items()
        if key.startswith("cost[") and key.endswith("]")
    }


def _check_portfolio_consistency(results: List[RunResult]) -> None:
    """Reporting invariants of every ``heur:portfolio`` cell: the winner
    exists, and the reported cost is the minimum over the members."""
    for r in _cells(results, method="heur:portfolio"):
        members = _portfolio_members(r)
        assert members, f"{r.dag}/R={r.red_limit}: no member costs reported"
        winner = r.extra["winner"]
        assert winner in members, f"{r.dag}: winner {winner!r} not a member"
        assert r.cost_fraction == min(members.values()), (
            f"{r.dag}/R={r.red_limit}: portfolio cost {r.cost} is not the "
            f"member minimum {min(members.values())}"
        )
        assert all(v >= r.cost_fraction for v in members.values())


def _check_hong_kung_floor(results: List[RunResult]) -> None:
    """Heuristic cost >= the Hong-Kung curve (matmul/FFT cells).

    The same convention as ``benchmarks/bench_hong_kung.py``: the game's
    measured traffic must clear ``bound - R`` (the curves' additive
    constants differ from the simulator's counting by at most R).
    """
    from ..solvers.bounds import fft_io_lower_bound, matmul_io_lower_bound

    checked = 0
    for r in _cells(results, method="heur:portfolio"):
        kind, _, arg = r.dag.partition(":")
        if kind == "matmul":
            bound = matmul_io_lower_bound(int(arg.split(":")[0]), r.red_limit)
        elif kind == "butterfly":
            bound = fft_io_lower_bound(1 << int(arg), r.red_limit)
        else:
            continue
        checked += 1
        assert "hong_kung_bound" in r.extra, f"{r.dag}: no yardstick reported"
        assert float(r.extra["hong_kung_bound"]) == bound
        assert float(r.cost_fraction) >= bound - r.red_limit, (
            f"{r.dag}/R={r.red_limit}: heuristic cost {r.cost} below the "
            f"Hong-Kung floor {bound} - R"
        )
    assert checked, "no matmul/butterfly cells to hold against the curve"


def _sweep_costs(results: List[RunResult], dag: str) -> List[Fraction]:
    """Portfolio costs for ``dag`` in ascending red-limit order."""
    rows = sorted(
        _cells(results, method="heur:portfolio", dag=dag),
        key=lambda r: r.red_limit,
    )
    assert len(rows) >= 2, f"{dag}: expected an R sweep, got {len(rows)} cell(s)"
    return [r.cost_fraction for r in rows]


def _assert_relieved_by_cache(results: List[RunResult], dag: str) -> None:
    """More red pebbles never hurt the portfolio (its belady member is
    Belady-optimal for the fixed order, hence monotone in R)."""
    costs = _sweep_costs(results, dag)
    assert costs == sorted(costs, reverse=True), (
        f"{dag}: portfolio cost not non-increasing in R: {costs}"
    )


@register_check("workloads-smoke")
def _check_workloads_smoke(results: List[RunResult]) -> None:
    _assert_all_ok(results)
    _check_portfolio_consistency(results)
    _check_hong_kung_floor(results)
    # the portfolio never loses to the naive topological baseline
    for r in _cells(results, method="heur:portfolio"):
        base = _cells(
            results, method="baseline", dag=r.dag, red_limit=r.red_limit
        )
        if base:
            assert r.cost_fraction <= base[0].cost_fraction, (
                f"{r.dag}/R={r.red_limit}: portfolio {r.cost} loses to "
                f"baseline {base[0].cost}"
            )
    # tiny exact anchor: heuristics are upper bounds on the optimum
    exact = _cell(results, method="exact", dag="stencil:2x2:t1")
    anchored = _cell(results, method="heur:portfolio", dag="stencil:2x2:t1")
    assert anchored.cost_fraction >= exact.cost_fraction, (
        f"portfolio {anchored.cost} beats the exact optimum {exact.cost}"
    )


@register_check("matmul-blocked")
def _check_matmul_blocked(results: List[RunResult]) -> None:
    _assert_all_ok(results)
    _check_portfolio_consistency(results)
    _check_hong_kung_floor(results)
    for dag in ("matmul:4", "matmul:4:b1", "matmul:4:b2"):
        _assert_relieved_by_cache(results, dag)


@register_check("conv-sweep")
def _check_conv_sweep(results: List[RunResult]) -> None:
    _assert_all_ok(results)
    _check_portfolio_consistency(results)
    for dag in ("conv:8:3", "conv:6:3:c2"):
        _assert_relieved_by_cache(results, dag)


@register_check("attn-sweep")
def _check_attn_sweep(results: List[RunResult]) -> None:
    _assert_all_ok(results)
    _check_portfolio_consistency(results)
    for dag in ("attn:3", "attn:3:h2"):
        _assert_relieved_by_cache(results, dag)


@register_check("hardness-smoke")
def _check_hardness_smoke(results: List[RunResult]) -> None:
    _assert_all_ok(results)
    # Theorem 2 cells: verdict == truth everywhere, and all order solvers
    # agree with the canonical optimum ...
    for r in _cells(results, method="hampath:decide"):
        assert r.extra["verdict"] == r.extra["truth"], (
            f"{r.dag}/{r.model}: wrong Hamiltonian verdict"
        )
    for hk in _cells(results, method="group:hk"):
        decide = _cell(results, method="hampath:decide", dag=hk.dag, model=hk.model)
        brute = _cell(results, method="group:brute", dag=hk.dag, model=hk.model)
        nn = _cell(results, method="group:nn2opt", dag=hk.dag, model=hk.model)
        assert hk.cost_fraction == brute.cost_fraction == decide.cost_fraction, (
            f"{hk.dag}/{hk.model}: order solvers disagree"
        )
        assert nn.cost_fraction >= hk.cost_fraction
    # ... and with the exhaustive bits solver where it runs.
    for exact in _cells(results, method="exact"):
        hk = _cell(results, method="group:hk", dag=exact.dag, model=exact.model)
        assert exact.cost_fraction == hk.cost_fraction, (
            f"{exact.dag}/{exact.model}: canonical strategy {hk.cost} != "
            f"exact optimum {exact.cost}"
        )
    # Theorem 3 cells: bracketed by the 2k'|VC| term, round-tripping cover.
    opt = _cell(results, method="vc:opt")
    approx = _cell(results, method="vc:2approx")
    for r in (opt, approx):
        assert r.extra["cover_roundtrip"] == "True"
        assert r.cost_fraction >= int(r.extra["dominant_term"])
    assert approx.cost_fraction >= opt.cost_fraction
    # Theorem 4 cells: pinned golden costs on the tiny grid (too small for
    # the asymptotic gap — greedy is actually cheaper here — but exactly
    # reproducible).
    greedy = _cell(results, method="grid:greedy")
    assert greedy.extra["followed_prediction"] == "True"
    assert greedy.cost_fraction == 5, f"golden greedy cost drifted: {greedy.cost}"
    assert _cell(results, method="grid:opt").cost_fraction == 9
