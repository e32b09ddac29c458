"""Analysis helpers: tradeoff curves, paper tables, greedy/opt ratios."""

from .ascii_plots import ascii_plot, render_table
from .board import render_timeline
from .experiments import (
    compare_results,
    results_table,
    summarize_results,
)
from .stats import ScheduleStats, schedule_stats
from .ratio import RatioPoint, greedy_grid_ratio_sweep, greedy_vs_optimal
from .tables import table1_rows, table2_rows
from .tradeoff import TradeoffCurve, tradeoff_curve

__all__ = [
    "results_table",
    "compare_results",
    "summarize_results",
    "TradeoffCurve",
    "tradeoff_curve",
    "table1_rows",
    "table2_rows",
    "greedy_vs_optimal",
    "greedy_grid_ratio_sweep",
    "RatioPoint",
    "ascii_plot",
    "render_table",
    "render_timeline",
    "ScheduleStats",
    "schedule_stats",
]
