"""Findings and the text report of ``repro-pebble check``."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Sequence

__all__ = ["Finding", "render_text"]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str


def render_text(findings: Sequence[Finding], *, checked_rules: Sequence) -> str:
    """One ``path:line:col RPxxx message`` line per finding, then a summary."""
    lines: List[str] = [
        f"{f.path}:{f.line}:{f.col} {f.rule} {f.message}" for f in findings
    ]
    if findings:
        counts = Counter(f.rule for f in findings)
        summary = ", ".join(f"{rid}={n}" for rid, n in sorted(counts.items()))
        lines.append(
            f"{len(findings)} finding(s) ({summary}) from "
            f"{len(checked_rules)} rule(s)"
        )
    else:
        lines.append(f"clean: {len(checked_rules)} rule(s), 0 findings")
    return "\n".join(lines)
