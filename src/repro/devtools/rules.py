"""The rule registry: ``Rule`` objects plus per-file / cross-file passes.

A rule is a plain object with an id, a name, a scope and a check
function; every rule is an error.  Two pass shapes exist:

* ``scope="file"`` — the check runs once per indexed python module and
  receives ``(module, index)``; rules usually filter by ``module.rel``.
* ``scope="repo"`` — the check runs once and receives the whole
  :class:`~repro.devtools.index.RepoIndex`; this is how RP008 follows
  exceptions across modules.

Rules register themselves at import time via :func:`rule` so the
catalogue is the single source the CLI, the docs and the tests all read.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List

from .index import ModuleInfo, RepoIndex
from .report import Finding

__all__ = ["Rule", "rule", "all_rules", "get_rule"]

_REGISTRY: Dict[str, "Rule"] = {}


@dataclass(frozen=True)
class Rule:
    """One registered static-analysis rule."""

    id: str
    name: str
    scope: str  # "file" | "repo"
    description: str
    check: Callable[..., Iterable[Finding]]

    def run(self, index: RepoIndex) -> Iterator[Finding]:
        """Apply this rule over the index (dispatching on scope)."""
        if self.scope == "repo":
            yield from self.check(index)
            return
        for module in index.modules():
            if module.syntax_error is not None:
                # every file-scope rule reports an unparseable file, since
                # none of them could check it; the finding carries the
                # parser message
                yield Finding(
                    rule=self.id,
                    path=module.rel,
                    line=1,
                    col=0,
                    message=f"file does not parse: {module.syntax_error}",
                )
                continue
            yield from self.check(module, index)


def rule(
    id: str,
    name: str,
    *,
    scope: str = "file",
    description: str,
) -> Callable[[Callable[..., Iterable[Finding]]], Callable[..., Iterable[Finding]]]:
    """Decorator registering a check function as a :class:`Rule`."""
    if scope not in ("file", "repo"):
        raise ValueError(f"bad scope {scope!r}")

    def register(fn: Callable[..., Iterable[Finding]]) -> Callable[..., Iterable[Finding]]:
        if id in _REGISTRY:
            raise ValueError(f"duplicate rule id {id}")
        _REGISTRY[id] = Rule(
            id=id, name=name, scope=scope, description=description, check=fn
        )
        return fn

    return register


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by id."""
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    try:
        return _REGISTRY[rule_id.upper()]
    except KeyError:
        raise KeyError(
            f"unknown rule {rule_id!r}; known: {', '.join(sorted(_REGISTRY))}"
        ) from None


# --------------------------------------------------------------------- #
# shared AST helpers used by several rule modules
# --------------------------------------------------------------------- #


def finding(rule_id: str, module: ModuleInfo, node: ast.AST, message: str) -> Finding:
    """A finding anchored at an AST node of ``module``."""
    return Finding(
        rule=rule_id,
        path=module.rel,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        message=message,
    )


def dotted_name(node: ast.expr) -> str:
    """``a.b.c`` as a string, or ``""`` for non-name expressions."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""
