"""Terminal rendering: tables and line plots for the experiment scripts.

Pure-stdlib ASCII output so the benchmark harness can regenerate the
paper's Figure 4-style diagrams in any environment.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

__all__ = ["render_table", "ascii_plot"]

Number = Union[int, float]


def render_table(
    rows: Sequence[Dict[str, object]],
    *,
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render dict-rows as an aligned ASCII table."""
    if not rows:
        return title or ""
    cols = list(columns) if columns is not None else list(rows[0].keys())
    widths = {c: len(c) for c in cols}
    for row in rows:
        for c in cols:
            widths[c] = max(widths[c], len(str(row.get(c, ""))))

    def line(values: Iterable[object]) -> str:
        return " | ".join(str(v).ljust(widths[c]) for c, v in zip(cols, values))

    out = []
    if title:
        out.append(title)
    out.append(line(cols))
    out.append("-+-".join("-" * widths[c] for c in cols))
    for row in rows:
        out.append(line([row.get(c, "") for c in cols]))
    return "\n".join(out)


def ascii_plot(
    series: Dict[str, Sequence[Tuple[Number, Number]]],
    *,
    width: int = 60,
    height: int = 16,
    title: Optional[str] = None,
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Plot one or more (x, y) series as ASCII art.

    Each series gets a marker character; points are scattered onto a
    width x height canvas with linear axis scaling.
    """
    markers = "*o+x#@%&"
    all_points = [p for pts in series.values() for p in pts]
    if not all_points:
        return title or "(no data)"
    xs = [float(x) for x, _ in all_points]
    ys = [float(y) for _, y in all_points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0

    canvas = [[" "] * width for _ in range(height)]
    for (name, pts), marker in zip(series.items(), markers):
        for x, y in pts:
            col = round((float(x) - x_min) / x_span * (width - 1))
            row = height - 1 - round((float(y) - y_min) / y_span * (height - 1))
            canvas[row][col] = marker

    out = []
    if title:
        out.append(title)
    y_hi = f"{y_max:g}"
    y_lo = f"{y_min:g}"
    label_w = max(len(y_hi), len(y_lo))
    for i, row in enumerate(canvas):
        prefix = y_hi if i == 0 else (y_lo if i == height - 1 else "")
        out.append(f"{prefix.rjust(label_w)} |{''.join(row)}")
    out.append(" " * label_w + " +" + "-" * width)
    out.append(
        " " * label_w
        + f"  {x_min:g}".ljust(width // 2)
        + f"{x_label} -> {x_max:g}".rjust(width // 2)
    )
    legend = "   ".join(
        f"{marker}={name}" for (name, _), marker in zip(series.items(), markers)
    )
    out.append(" " * label_w + "  " + legend + f"   (y: {y_label})")
    return "\n".join(out)
