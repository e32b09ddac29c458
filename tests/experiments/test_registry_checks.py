"""Every hardness spec runs green and its assertion suite passes.

This is the tier-1 regression gate for the paper's theorem claims: each
spec below is executed inline (they are all sub-second grids) and its
registered checks — decision thresholds, the 2k'|VC| accounting, the
greedy-defeating grid gap, the gadget cliffs, the Lemma 1 length bound,
the table matrices — must hold.
"""

import pytest

from repro.experiments import Runner, checks_for, get_spec, run_spec_checks

# every registered spec that carries an assertion suite and runs in
# well under a second per grid (the timings are pinned by the CI
# benchmarks job; hardness-smoke has its own dedicated test module)
FAST_CHECKED_SPECS = [
    "thm2-hampath",
    "thm2-ordering",
    "thm3-vertex-cover",
    "thm3-ksweep",
    "thm4-greedy-grid",
    "thm4-kprime",
    "appendix-b-thm2",
    "appendix-b-thm4",
    "appendix-c",
    "fig1-cd",
    "fig2-h2c",
    "lemma1-length",
    "table1-models",
    "table2-properties",
    "workloads-smoke",
    "matmul-blocked",
    "conv-sweep",
    "attn-sweep",
    "multilevel-smoke",
    "tradeoff-exact",
]


@pytest.mark.parametrize("name", FAST_CHECKED_SPECS)
def test_spec_runs_green_and_checks_hold(name):
    spec = get_spec(name)
    results = Runner(jobs=0).run(spec)
    assert len(results) == spec.n_tasks
    assert run_spec_checks(name, results) >= 1


def test_every_hardness_tagged_spec_is_gated():
    from repro.experiments import all_specs

    for spec in all_specs(tag="hardness"):
        assert checks_for(spec.name), (
            f"hardness spec {spec.name!r} has no assertion suite"
        )


def test_check_failure_is_labelled():
    from dataclasses import replace

    spec = get_spec("table1-models")
    results = Runner(jobs=0).run(spec)
    broken = [
        replace(r, extra={**r.extra, "matches_declared": "False"})
        for r in results
    ]
    with pytest.raises(AssertionError, match=r"\[table1-models/"):
        run_spec_checks(spec.name, broken)


@pytest.mark.parametrize(
    "name,method",
    [
        ("multilevel-smoke", "ml:exact"),
        ("multilevel-smoke", "ml:exact:hier:3,6:1,4"),
        ("tradeoff-exact", "exact"),
    ],
)
def test_checks_catch_a_drifted_cost(name, method):
    from dataclasses import replace

    results = Runner(jobs=0).run(get_spec(name))
    broken = [
        replace(r, cost="999") if r.method == method else r for r in results
    ]
    with pytest.raises(AssertionError, match=rf"\[{name}/"):
        run_spec_checks(name, broken)
