"""Repo-aware static analysis: ``repro-pebble check``.

The engines in this repository are held together by *conventional*
invariants — "shifts in packed-state modules stay inside the declared
lane width", "nothing unpicklable crosses a process boundary", "public
solvers fail only in the documented exception vocabulary" — that a
generic linter cannot know about.  This package machine-checks them: a
small AST framework (:mod:`.index`, :mod:`.rules`, :mod:`.report`), a
dataflow layer (:mod:`.analysis`: per-function CFGs, a repo-wide call
graph and exception propagation), and one module per rule.  Every rule
is an error; the command takes one option, ``--root``.

Rule catalogue (details + examples in ``docs/static-analysis.md``):

========  ===========================================================
RP001     bit-width safety in packed-state modules (uint64 lanes)
RP003     pickling/fork safety of process entry points
RP006     tier-1 test determinism (seeded randomness, no wall-clock
          reads inside assertions)
RP007     Pipe/Pool/PipeWorker/sqlite released on every CFG path
RP008     public solvers/* only raise PebblingError/ValueError
RP011     dead/duplicated spec-grammar dispatch branches
RP012     no float literals in integer-scaled kernel cost paths
========  ===========================================================

The invariants between code and docs (engine catalogue, spec grammar
and method registry, service status codes) are pytest assertions in
``tests/docs/test_doc_sync.py``, not rules.

Entry points: :func:`run_check` (programmatic) and the ``check``
subcommand of :mod:`repro.cli`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .index import RepoIndex
from .report import Finding, render_text
from .rules import Rule, all_rules, get_rule

# importing the rule modules registers them with the rules registry
from . import checks_bitwidth  # noqa: F401
from . import checks_costs  # noqa: F401
from . import checks_determinism  # noqa: F401
from . import checks_dispatch  # noqa: F401
from . import checks_exceptions  # noqa: F401
from . import checks_fork  # noqa: F401
from . import checks_resources  # noqa: F401

__all__ = [
    "Rule",
    "Finding",
    "RepoIndex",
    "all_rules",
    "get_rule",
    "run_check",
    "render_text",
]


def run_check(
    index: RepoIndex,
    *,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Run ``rules`` (default: all) over an indexed tree, sorted findings."""
    if rules is None:
        rules = all_rules()
    findings = [f for r in rules for f in r.run(index)]
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return findings
