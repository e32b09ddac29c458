"""Ablation A-GR — the three Section 8 greedy rules.

Section 8 notes the rules coincide on the uniform-indegree constructions;
this ablation measures where they agree and how far any of them can drift
from the optimum on small irregular DAGs (exact optimum via state-space
search).

The grid (5 workloads x {3 greedy rules, exact}) is the declarative
``greedy-rules`` spec of :mod:`repro.experiments`; this script keeps the
assertions.

Run standalone:  python benchmarks/bench_ablation_greedy_rules.py
"""

from repro.analysis import pivot_costs, render_table, results_table
from repro.experiments import Runner, get_spec

SPEC = get_spec("greedy-rules")

RULES = ("greedy:most-red-inputs", "greedy:fewest-blue-inputs", "greedy:red-ratio")


def reproduce():
    return Runner(jobs=0).run(SPEC)


def test_greedy_rules_ablation(benchmark):
    results = benchmark.pedantic(reproduce, rounds=1, iterations=1)
    assert all(r.ok for r in results)
    grouped = pivot_costs(results)
    assert len(grouped) == 5
    for dag, costs in grouped.items():
        opt = costs["exact"]
        for rule in RULES:
            # greedy never beats the optimum; on these small instances it
            # stays within a small factor (the blow-up needs Theorem 4's
            # adversarial structure)
            assert opt <= costs[rule], (dag, rule)
            assert costs[rule] <= 6 * opt + 6, (dag, rule)
    # uniform-indegree row: most-red and red-ratio agree exactly
    uniform = grouped["tasks:3x2"]
    assert uniform["greedy:most-red-inputs"] == uniform["greedy:red-ratio"]


if __name__ == "__main__":
    print(render_table(results_table(reproduce()),
                       title="Greedy-rule ablation (oneshot cost, exact for scale)"))
