"""RP006 — tier-1 tests stay deterministic.

The differential and golden suites are the repo's safety net; a flaky
test erodes exactly the trust they exist to provide.  Inside
``tests/**/test_*.py`` this rule flags the two classic flakiness
sources:

* **unseeded randomness** — module-level ``random.random()`` /
  ``random.randint(...)`` etc. (constructing ``random.Random(seed)`` is
  the sanctioned idiom) and ``np.random.x(...)`` through the legacy
  global generator (``np.random.default_rng(seed)`` /
  ``RandomState(seed)`` / ``SeedSequence`` are fine);
* **wall-clock reads** — any ``time.time()`` / ``datetime.now()`` /
  ``utcnow()`` call (timing belongs in ``perfbench/``, which this rule
  does not scan), and
  ``perf_counter``/``monotonic`` used *inside an assertion*, which
  turns load on the CI runner into a test verdict.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from .index import ModuleInfo, RepoIndex
from .report import Finding
from .rules import dotted_name, finding, rule

__all__ = []

#: random-module attributes that are fine (seeded constructors, helpers)
_RANDOM_OK = frozenset({"Random", "SystemRandom", "seed", "getstate", "setstate"})

#: np.random attributes that are fine (explicitly seeded generators)
_NP_RANDOM_OK = frozenset({"default_rng", "RandomState", "SeedSequence", "Generator"})

#: calls that read the wall clock anywhere
_WALL_CLOCK = frozenset({"time.time", "datetime.now", "datetime.utcnow"})

#: clock reads that are fine in general but not inside an assert
_TIMER_LEAVES = frozenset({"perf_counter", "monotonic", "process_time"})


def _is_test_module(module: ModuleInfo) -> bool:
    if not module.rel.startswith("tests/"):
        return "devtools: tests" in module.source
    name = module.rel.rsplit("/", 1)[-1]
    return name.startswith("test_") and name.endswith(".py")


def _clock_findings(module: ModuleInfo, node: ast.Call) -> List[Finding]:
    name = dotted_name(node.func)
    out: List[Finding] = []
    if name in _WALL_CLOCK or name.endswith(".datetime.now"):
        out.append(
            finding(
                "RP006", module, node,
                f"{name}(...) reads the wall clock inside a tier-1 test; "
                f"freeze or inject the timestamp instead",
            )
        )
    return out


def _random_findings(module: ModuleInfo, node: ast.Call) -> List[Finding]:
    name = dotted_name(node.func)
    out: List[Finding] = []
    if name.startswith("random.") and name.count(".") == 1:
        attr = name.split(".", 1)[1]
        if attr not in _RANDOM_OK:
            out.append(
                finding(
                    "RP006", module, node,
                    f"{name}(...) uses the unseeded global generator; "
                    f"construct random.Random(seed) so the test replays",
                )
            )
    for prefix in ("np.random.", "numpy.random."):
        if name.startswith(prefix):
            attr = name[len(prefix):]
            if attr not in _NP_RANDOM_OK:
                out.append(
                    finding(
                        "RP006", module, node,
                        f"{name}(...) uses numpy's unseeded global "
                        f"generator; use np.random.default_rng(seed)",
                    )
                )
    return out


@rule(
    "RP006",
    "test-determinism",
    scope="file",
    description=(
        "tier-1 tests must not use unseeded randomness, read the wall "
        "clock, or assert on timer deltas"
    ),
)
def check_test_determinism(
    module: ModuleInfo, index: RepoIndex
) -> Iterator[Finding]:
    if not _is_test_module(module):
        return
    assert module.tree is not None

    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            yield from _clock_findings(module, node)
            yield from _random_findings(module, node)
        elif isinstance(node, ast.Assert):
            for sub in ast.walk(node.test):
                if not isinstance(sub, ast.Call):
                    continue
                name = dotted_name(sub.func)
                leaf = name.rsplit(".", 1)[-1] if name else ""
                if leaf in _TIMER_LEAVES:
                    yield finding(
                        "RP006", module, sub,
                        f"{name or leaf}(...) inside an assert makes the "
                        f"verdict depend on runner load; measure outside "
                        f"tier-1 (perfbench/) or assert on counts",
                    )
