"""The parsed-module index the rules run over.

A :class:`RepoIndex` walks a repository root once and keeps, per python
file, everything a rule pass needs: the source text and the parsed AST.
Per-file rules iterate :meth:`RepoIndex.modules`; RP008 asks for a
well-known path (:meth:`RepoIndex.module`) so the same rule runs
unchanged against the real repository and against the miniature
fixture tree in ``tests/devtools/fixtures/``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Optional, Sequence, Tuple

__all__ = ["ModuleInfo", "RepoIndex", "DEFAULT_SCAN", "EXCLUDED_DIRS", "FIXTURES"]

#: subtrees scanned when no explicit paths are given
DEFAULT_SCAN: Tuple[str, ...] = (
    "src",
    "tests",
    "benchmarks",
    "examples",
    "tools",
)

#: directory names never scanned, at any depth (``results/`` holds
#: bench output; a *file* named ``results.py`` is scanned like any other)
EXCLUDED_DIRS = frozenset({"__pycache__", ".git", ".hypothesis", "results"})

#: the analyzer's own known-violation fixtures *must* stay out of the
#: default run
FIXTURES = "tests/devtools/fixtures/"


@dataclass
class ModuleInfo:
    """One indexed python file: relative path, source, parsed AST."""

    rel: str  # posix-style path relative to the index root
    source: str
    tree: Optional[ast.Module] = None
    syntax_error: Optional[str] = None

    @classmethod
    def parse(cls, path: Path, rel: str) -> "ModuleInfo":
        source = path.read_text(encoding="utf-8")
        info = cls(rel=rel, source=source)
        try:
            info.tree = ast.parse(source, filename=rel)
        except SyntaxError as exc:  # surfaced by the framework, not a rule
            info.syntax_error = f"{exc.msg} (line {exc.lineno})"
        return info


class RepoIndex:
    """All python modules under one root, parsed once."""

    def __init__(self, root: Path, *, paths: Optional[Sequence[str]] = None) -> None:
        root = Path(root).resolve()
        self._py: Dict[str, ModuleInfo] = {}
        for entry in paths if paths is not None else DEFAULT_SCAN:
            target = root / entry
            if not target.exists():
                continue
            candidates = [target] if target.is_file() else sorted(target.rglob("*.py"))
            for path in candidates:
                rel = path.relative_to(root).as_posix()
                if (
                    path.suffix == ".py"
                    and not EXCLUDED_DIRS.intersection(rel.split("/")[:-1])
                    and not rel.startswith(FIXTURES)
                ):
                    self._py[rel] = ModuleInfo.parse(path, rel)

    def modules(self) -> Iterator[ModuleInfo]:
        """All indexed python modules, in stable path order."""
        for rel in sorted(self._py):
            yield self._py[rel]

    def module(self, rel: str) -> Optional[ModuleInfo]:
        """The module at a well-known relative path, or None."""
        return self._py.get(rel)
