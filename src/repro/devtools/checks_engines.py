"""RP002 — the engine catalogue stays in sync across its four mirrors.

``solve_optimal(engine=...)`` in ``src/repro/solvers/exact.py`` is the
seam every fast path hides behind.  The differential policy (ROADMAP,
PR 6) says each engine name dispatched there must also appear in

* the ``ENGINES`` parametrization of
  ``tests/solvers/test_engine_differential.py`` (``"bits"`` is exempt:
  it is the reference the others are compared against),
* ``tests/solvers/test_golden_optima.py`` — either as an ``engine=``
  keyword or via a direct ``solve_optimal_<engine>(...)`` call,
* the engine matrix table in ``docs/architecture.md`` (a row whose
  first cell is the backticked quoted name, e.g. ``` `"numpy"` ```).

A name present in a mirror but absent from the dispatch is flagged in
the other direction, so deleting an engine cleans up all four places.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, Optional, Set

from .index import RepoIndex
from .report import Finding
from .rules import rule, str_constants_compared_to

__all__ = [
    "EXACT_PATH",
    "DIFFERENTIAL_PATH",
    "GOLDEN_PATH",
    "ARCHITECTURE_DOC",
]

EXACT_PATH = "src/repro/solvers/exact.py"
DIFFERENTIAL_PATH = "tests/solvers/test_engine_differential.py"
GOLDEN_PATH = "tests/solvers/test_golden_optima.py"
ARCHITECTURE_DOC = "docs/architecture.md"

#: the reference engine — differential tests compare the others to it
REFERENCE_ENGINE = "bits"

#: table cells like `"legacy"` in the docs matrix
_DOC_ENGINE_RE = re.compile(r'`"(?P<name>[a-z]+)"`')


def _dispatched_engines(index: RepoIndex) -> Optional[Dict[str, int]]:
    """Engines ``solve_optimal`` dispatches on, with lines."""
    module = index.module(EXACT_PATH)
    if module is None or module.tree is None:
        return None
    for node in ast.walk(module.tree):
        if isinstance(node, ast.FunctionDef) and node.name == "solve_optimal":
            return str_constants_compared_to(node, "engine")
    return None


def _differential_engines(index: RepoIndex) -> Optional[Set[str]]:
    """Names in the ``ENGINES = (...)`` tuple of the differential test."""
    module = index.module(DIFFERENTIAL_PATH)
    if module is None or module.tree is None:
        return None
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Assign):
            targets = {
                t.id for t in node.targets if isinstance(t, ast.Name)
            }
            if "ENGINES" not in targets:
                continue
            if isinstance(node.value, (ast.Tuple, ast.List)):
                return {
                    e.value
                    for e in node.value.elts
                    if isinstance(e, ast.Constant) and isinstance(e.value, str)
                }
    return None


def _golden_engines(index: RepoIndex) -> Optional[Set[str]]:
    """Engines the golden-optima test exercises.

    An engine counts as covered when the test either passes
    ``engine="name"`` somewhere, or calls the per-engine entry point
    directly (``solve_optimal_legacy(...)``).  A plain
    ``solve_optimal(...)`` call without an ``engine`` keyword exercises
    the default and therefore covers the reference engine.
    """
    module = index.module(GOLDEN_PATH)
    if module is None or module.tree is None:
        return None
    covered: Set[str] = set()
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        engine_kw = None
        for kw in node.keywords:
            if (
                kw.arg == "engine"
                and isinstance(kw.value, ast.Constant)
                and isinstance(kw.value.value, str)
            ):
                engine_kw = kw.value.value
                covered.add(engine_kw)
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else ""
        )
        if name.startswith("solve_optimal_"):
            covered.add(name[len("solve_optimal_"):])
        elif name == "solve_optimal" and engine_kw is None:
            covered.add(REFERENCE_ENGINE)
    return covered


def _documented_engines(index: RepoIndex) -> Optional[Set[str]]:
    """Engines with a row in the architecture engine-matrix table."""
    doc = index.doc(ARCHITECTURE_DOC)
    if doc is None:
        return None
    names: Set[str] = set()
    for line in doc.splitlines():
        if not line.lstrip().startswith("|"):
            continue
        first_cell = line.split("|")[1] if line.count("|") >= 2 else ""
        for match in _DOC_ENGINE_RE.finditer(first_cell):
            names.add(match.group("name"))
    return names


def _missing(rule_id: str, path: str, line: int, message: str) -> Finding:
    return Finding(
        rule=rule_id, severity="error", path=path, line=line, col=0,
        message=message,
    )


@rule(
    "RP002",
    "engine-catalogue-sync",
    severity="error",
    scope="repo",
    description=(
        "every engine dispatched by solve_optimal must appear in the "
        "differential ENGINES tuple, the golden-optima coverage, and the "
        "architecture.md engine matrix (and vice versa)"
    ),
)
def check_engine_sync(index: RepoIndex) -> Iterator[Finding]:
    dispatched = _dispatched_engines(index)
    if not dispatched:
        # nothing to sync against (not this repo's layout) — stay silent,
        # RepoIndex fixtures without an exact.py shouldn't fire RP002
        return

    differential = _differential_engines(index)
    golden = _golden_engines(index)
    documented = _documented_engines(index)
    engines = set(dispatched)

    if differential is not None:
        want = engines - {REFERENCE_ENGINE}
        for name in sorted(want - differential):
            yield _missing(
                "RP002", DIFFERENTIAL_PATH, 1,
                f'engine "{name}" is dispatched by solve_optimal but '
                f"missing from the ENGINES differential parametrization",
            )
        for name in sorted(differential - engines):
            yield _missing(
                "RP002", DIFFERENTIAL_PATH, 1,
                f'ENGINES lists "{name}" but solve_optimal has no such '
                f"engine branch",
            )

    if golden is not None:
        for name in sorted(engines - golden):
            yield _missing(
                "RP002", GOLDEN_PATH, 1,
                f'engine "{name}" has no golden-optima coverage (no '
                f'engine="{name}" call and no solve_optimal_{name} call)',
            )

    if documented is not None:
        for name in sorted(engines - documented):
            yield _missing(
                "RP002", ARCHITECTURE_DOC, 1,
                f'engine "{name}" has no row in the architecture.md '
                f"engine matrix",
            )
        for name in sorted(documented - engines):
            yield _missing(
                "RP002", ARCHITECTURE_DOC, 1,
                f'architecture.md documents engine "{name}" which '
                f"solve_optimal does not dispatch",
            )
