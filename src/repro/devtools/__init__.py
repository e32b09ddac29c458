"""Repo-aware static analysis: ``repro-pebble check``.

The engines in this repository are held together by *conventional*
invariants — "shifts in packed-state modules stay inside the declared
lane width", "every engine behind ``solve_optimal`` joins the
differential battery", "nothing unpicklable crosses a pipe worker" —
that a generic linter cannot know about.  This package machine-checks
them, the same way the kernels are machine-checked by the differential
and golden suites: a small AST-analysis framework (:mod:`.index`,
:mod:`.rules`, :mod:`.report`), a dataflow layer (:mod:`.analysis`:
per-function CFGs, reaching definitions, a repo-wide call graph and
exception propagation), and one module per repo-specific rule.

Rule catalogue (details + examples in ``docs/static-analysis.md``):

========  ===========================================================
RP000     unused ``# noqa`` suppressions (warning; autofix removes)
RP001     bit-width safety in packed-state modules (uint64 lanes)
RP002     engine catalogue <-> differential/golden/docs sync
RP003     pickling/fork safety of process entry points
RP004     method/spec registries documented in docs/spec-grammar.md
RP005     service error contract covers the documented status codes
RP006     tier-1 test determinism (seeded randomness, no wall-clock
          reads inside assertions)
RP007     Pipe/Pool/PipeWorker/sqlite released on every CFG path
RP008     public solvers/* only raise PebblingError/ValueError
RP011     dead/duplicated spec-grammar dispatch branches (autofix)
RP012     no float literals in integer-scaled kernel cost paths
          (autofix for integral literals)
========  ===========================================================

Entry points: :func:`run_check` (programmatic) and the ``check``
subcommand of :mod:`repro.cli` (``--fix`` applies span autofixes in a
check/apply/re-check loop; ``--baseline`` / ``--changed-only`` support
warn-first adoption).  A finding on line *L* is suppressed by a
``# noqa: RPxxx`` comment on that line — comma lists
(``# noqa: RP001,RP003``) suppress several rules at once, and
suppressions that stop matching anything are themselves reported by
RP000 (the rule id is required; a bare ``noqa`` deliberately does not
silence these checks).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from .baseline import (
    apply_baseline,
    changed_paths,
    load_baseline,
    save_baseline,
)
from .fix import apply_fixes, unused_noqa_fix
from .index import RepoIndex
from .report import Finding, Fix, render_json, render_text
from .rules import Rule, all_rules, get_rule, rule

# importing the rule modules registers them with the rules registry
from . import (  # noqa: F401  (import-for-registration)
    checks_bitwidth,
    checks_costs,
    checks_determinism,
    checks_dispatch,
    checks_docs,
    checks_engines,
    checks_exceptions,
    checks_fork,
    checks_resources,
    checks_service,
)

__all__ = [
    "Rule",
    "Finding",
    "Fix",
    "RepoIndex",
    "all_rules",
    "get_rule",
    "run_check",
    "fix_all",
    "apply_fixes",
    "render_text",
    "render_json",
    "apply_baseline",
    "load_baseline",
    "save_baseline",
    "changed_paths",
]


@rule(
    "RP000",
    "unused-noqa",
    severity="warning",
    autofixable=True,
    scope="repo",
    description=(
        "a # noqa: RPxxx suppression whose rule ran but flagged nothing "
        "on that line is stale and must be removed (autofixable) — "
        "baselined suppressions cannot rot silently"
    ),
)
def _unused_noqa_placeholder(index: RepoIndex) -> Iterable[Finding]:
    # computed inside run_check (it needs the other rules' suppression
    # hits); the registration here gives RP000 a catalogue entry and
    # makes it selectable like any other rule
    return ()


def select_rules(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Rule]:
    """The rule set named by ``--select`` / ``--ignore`` (ids, any case)."""
    rules = all_rules()
    if select is not None:
        wanted = {s.upper() for s in select}
        unknown = wanted - {r.id for r in rules}
        if unknown:
            raise ValueError(
                f"unknown rule id(s): {', '.join(sorted(unknown))}; "
                f"known: {', '.join(r.id for r in rules)}"
            )
        rules = [r for r in rules if r.id in wanted]
    if ignore is not None:
        dropped = {s.upper() for s in ignore}
        unknown = dropped - {r.id for r in all_rules()}
        if unknown:
            raise ValueError(
                f"unknown rule id(s): {', '.join(sorted(unknown))}; "
                f"known: {', '.join(r.id for r in all_rules())}"
            )
        rules = [r for r in rules if r.id not in dropped]
    return rules


def _unused_noqa_findings(
    index: RepoIndex,
    checked_ids: Set[str],
    used: Set[Tuple[str, int, str]],
) -> List[Finding]:
    """RP000: suppressions for checked rules that suppressed nothing."""
    findings: List[Finding] = []
    for module in index.modules():
        for line, ids in sorted(index.noqa_directives(module.rel).items()):
            for rule_id in ids:
                if rule_id == "RP000" or rule_id not in checked_ids:
                    continue  # only judge suppressions of rules that ran
                if (module.rel, line, rule_id) in used:
                    continue
                findings.append(
                    Finding(
                        rule="RP000",
                        severity="warning",
                        path=module.rel,
                        line=line,
                        col=0,
                        message=(
                            f"unused suppression: {rule_id} reports nothing "
                            f"on this line — remove the stale noqa"
                        ),
                        fix=unused_noqa_fix(module, line, rule_id),
                    )
                )
    return findings


def run_check(
    index: RepoIndex,
    *,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Run ``rules`` (default: all) over an indexed tree, sorted findings.

    ``# noqa: RPxxx`` suppressions are applied here, so every caller —
    CLI, CI, the analyzer's own tests — sees the same verdicts; the
    suppressions that fire feed the RP000 unused-noqa audit.
    """
    if rules is None:
        rules = all_rules()
    findings: List[Finding] = []
    used: Set[Tuple[str, int, str]] = set()
    for r in rules:
        if r.id == "RP000":
            continue  # runs after the others: it audits their suppressions
        for finding in r.run(index):
            if index.is_suppressed(finding):
                used.add((finding.path, finding.line, finding.rule))
            else:
                findings.append(finding)
    if any(r.id == "RP000" for r in rules):
        checked_ids = {r.id for r in rules}
        for finding in _unused_noqa_findings(index, checked_ids, used):
            if not index.is_suppressed(finding):
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return findings


def fix_all(
    root: Path,
    rules: Optional[Sequence[Rule]] = None,
    *,
    max_rounds: int = 5,
) -> Tuple[int, List[Finding]]:
    """The ``--fix`` loop: check, apply fixes, re-check until clean.

    Returns ``(fixes applied, remaining findings)``.  Each round
    re-indexes from disk so spans are always computed against current
    sources; the loop stops when a round applies nothing (including the
    idempotent case: a second ``--fix`` run is a no-op by construction).
    """
    total = 0
    for _ in range(max_rounds):
        index = RepoIndex(root)
        findings = run_check(index, rules=rules)
        fixable = [f for f in findings if f.fix is not None]
        if not fixable:
            return total, findings
        applied = apply_fixes(index, fixable)
        n = sum(applied.values())
        if n == 0:
            return total, findings
        total += n
    index = RepoIndex(root)
    return total, run_check(index, rules=rules)
