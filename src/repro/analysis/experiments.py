"""Tables over :class:`~repro.experiments.RunResult` sets.

Pivots a flat result list into the comparison tables that
``repro-pebble bench run`` and ``bench compare`` print: one row per instance
(dag, model, R), one column per method, plus cross-artifact comparison
(e.g. before/after an optimisation) matched on grid coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..experiments.results import RunResult, RunStatus

__all__ = ["results_table", "compare_results", "summarize_results"]


def _instance_label(r: RunResult) -> Tuple[str, str, Optional[int]]:
    return (r.dag, r.model, r.red_limit)


def _cell(r: RunResult) -> str:
    if r.status is RunStatus.OK:
        return str(r.cost)
    return r.status.value


def results_table(results: Sequence[RunResult]) -> List[Dict[str, object]]:
    """Pivot results into rows keyed by instance, one column per method.

    Row order follows first appearance in ``results`` (the runner
    preserves the spec's grid order), so tables are deterministic.
    """
    methods: List[str] = []
    rows: Dict[Tuple[str, str, Optional[int]], Dict[str, object]] = {}
    for r in results:
        if r.method not in methods:
            methods.append(r.method)
        key = _instance_label(r)
        row = rows.setdefault(
            key, {"dag": r.dag, "model": r.model, "R": r.red_limit}
        )
        row[r.method] = _cell(r)
    out = []
    for row in rows.values():
        for m in methods:
            row.setdefault(m, "")
        out.append(row)
    return out


def compare_results(
    baseline: Sequence[RunResult],
    candidate: Sequence[RunResult],
    *,
    labels: Tuple[str, str] = ("baseline", "candidate"),
) -> List[Dict[str, object]]:
    """Join two artifacts on (dag, model, method, R) and ratio their costs.

    Cells missing from either side are shown but left blank; non-``ok``
    cells report their status instead of a ratio.
    """
    a_label, b_label = labels
    b_by_key = {r.key(): r for r in candidate}
    seen = set()
    rows: List[Dict[str, object]] = []

    def row_for(a: Optional[RunResult], b: Optional[RunResult]) -> Dict[str, object]:
        src = a or b
        row: Dict[str, object] = {
            "dag": src.dag,
            "model": src.model,
            "method": src.method,
            "R": src.red_limit,
            a_label: _cell(a) if a else "",
            b_label: _cell(b) if b else "",
            "ratio": "",
        }
        if a is not None and b is not None and a.ok and b.ok:
            ca, cb = a.cost_fraction, b.cost_fraction
            if ca == cb:
                row["ratio"] = "1.00"
            elif ca == 0:
                row["ratio"] = "inf"
            else:
                row["ratio"] = f"{float(Fraction(cb, ca)):.2f}"
        return row

    for a in baseline:
        key = a.key()
        seen.add(key)
        rows.append(row_for(a, b_by_key.get(key)))
    for b in candidate:
        if b.key() not in seen:
            rows.append(row_for(None, b))
    return rows


def summarize_results(results: Iterable[RunResult]) -> Dict[str, object]:
    """Aggregate counters for one artifact: statuses, cache hits, time."""
    counts = {s.value: 0 for s in RunStatus}
    cached = 0
    wall = 0.0
    total = 0
    for r in results:
        total += 1
        counts[r.status.value] += 1
        cached += int(r.cached)
        wall += r.wall_time
    return {
        "tasks": total,
        **counts,
        "cached": cached,
        "wall_time": round(wall, 3),
    }
