"""Pinned cell lists of the benchmark workloads.

Every exact optimum below is a correctness check: a solve that returns
any other cost is a failed operation.  The lists are copied here rather
than imported so the benchmark never reaches into the test tree.
"""

from __future__ import annotations

#: (DAG spec, model, R, optimum) — copied from ``GOLDEN`` in
#: tests/solvers/test_golden_optima.py (pinned by the legacy frozenset
#: solver and hand-checked against the paper where a formula exists).
#: The optima sum to 4663/50 = 93.26.
ZOO = [
    ("pyramid:2", "base", 3, "2"),
    ("pyramid:2", "oneshot", 3, "2"),
    ("pyramid:2", "nodel", 3, "5"),
    ("pyramid:2", "compcost", 3, "103/50"),
    ("pyramid:2", "base", 4, "0"),
    ("pyramid:2", "oneshot", 4, "0"),
    ("pyramid:2", "nodel", 4, "2"),
    ("pyramid:2", "compcost", 4, "3/50"),
    ("pyramid:2", "base", 5, "0"),
    ("pyramid:2", "oneshot", 5, "0"),
    ("pyramid:2", "nodel", 5, "1"),
    ("pyramid:2", "compcost", 5, "3/50"),
    ("pyramid:3", "oneshot", 3, "6"),
    ("pyramid:3", "oneshot", 4, "2"),
    ("pyramid:3", "nodel", 4, "8"),
    ("tree:4", "oneshot", 3, "2"),
    ("tree:4", "oneshot", 4, "0"),
    ("chain:8", "nodel", 2, "6"),
    ("chain:8", "nodel", 3, "5"),
    ("chain:8", "oneshot", 2, "0"),
    ("grid:3x3", "oneshot", 3, "4"),
    ("h2c:4", "base", 4, "4"),
    ("h2c:4", "oneshot", 4, "4"),
    ("h2c:4", "nodel", 4, "8"),
    ("h2c:4", "compcost", 4, "102/25"),
    ("h2c:4", "oneshot", 5, "2"),
    ("tradeoff:2x6", "oneshot", 4, "16"),
    ("tradeoff:2x6", "oneshot", 5, "8"),
    ("tradeoff:2x6", "oneshot", 6, "0"),
]

#: (DAG spec, R) of the kernel DAGs the heuristics run on, in the oneshot
#: model.  The first nine are the ``heur:portfolio`` grid of the registered
#: ``workloads-smoke`` spec (src/repro/experiments/registry.py): its five
#: DAGs at its two budgets, R 4 and 8, with the stencil pinned to R 8 by
#: its ``#r8`` suffix.  ``ggrid:4x12`` is the Theorem 4 grid of the
#: ``thm4-greedy-grid`` spec at that spec's budget, the DAG's minimum R
#: (17), where greedy is misled (portfolio 157, the paper's sweep 31).
KERNELS = [
    ("matmul:4:b2", 4),
    ("matmul:4:b2", 8),
    ("conv:6:3:c2", 4),
    ("conv:6:3:c2", 8),
    ("attn:3:h2", 4),
    ("attn:3:h2", 8),
    ("stencil:3x3:t2", 8),
    ("butterfly:3", 4),
    ("butterfly:3", 8),
    ("ggrid:4x12", 17),
]

#: the ``heur:portfolio`` members, as the portfolio method runs them
GREEDY_RULES = ("most-red-inputs", "fewest-blue-inputs", "red-ratio")
EVICTIONS = ("belady", "min-uses")
MEMBERS = tuple(f"greedy:{r}" for r in GREEDY_RULES) + tuple(
    f"fixed-order:{e}" for e in EVICTIONS
)

#: distinct service cells: the zoo under the exact method, and the kernel
#: cells under ``heur:portfolio``.  Each computes in under 0.2 s, so only
#: a stall pushes a round trip past one second.
SERVICE_CELLS = [
    {"dag": d, "model": m, "method": "exact", "red_limit": r} for d, m, r, _ in ZOO
] + [
    {"dag": d, "model": "oneshot", "method": "heur:portfolio", "red_limit": r}
    for d, r in KERNELS
]

#: set-up traffic, outside the stream: one batch that makes the pool
#: spawn both of its workers
SERVICE_WARMUP = [
    {"dag": "chain:4", "model": "oneshot", "method": "exact", "red_limit": 2},
    {"dag": "pyramid:2", "model": "oneshot", "method": "heur:portfolio",
     "red_limit": 3},
]
