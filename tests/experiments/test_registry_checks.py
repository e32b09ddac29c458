"""Every registered spec carries an assertion suite, and a gate runs it.

This is the tier-1 regression gate for the paper's claims: each spec in
``FAST_CHECKED_SPECS`` is executed inline (each grid takes about a second
or less) and its registered checks — Section 3's bounds, the Figure 4
tradeoff, the eviction and Hong-Kung laws, decision thresholds, the
2k'|VC| accounting, the greedy-defeating grid gap, the gadget cliffs,
the Lemma 1 length bound, the table matrices — must hold.  A test below
holds every checked spec to this list, or to ``hardness-smoke``'s own
test module.
"""

import pytest

from repro.experiments import Runner, all_specs, checks_for, get_spec, run_spec_checks

# every checked spec but hardness-smoke, run inline; each takes about a
# second or less per grid (beam-ablation's exact grid:4x4 cell is the
# slowest, at about 0.6 s under the default A* bound)
FAST_CHECKED_SPECS = [
    "smoke",
    "sec3-bounds",
    "hong-kung",
    "eviction",
    "fig4-tradeoff",
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
    "greedy-rules",
    "beam-ablation",
    "engines-smoke",
]


@pytest.mark.parametrize("name", FAST_CHECKED_SPECS)
def test_spec_runs_green_and_checks_hold(name):
    spec = get_spec(name)
    results = Runner(jobs=0).run(spec)
    assert len(results) == spec.n_tasks
    assert run_spec_checks(name, results) >= 1


def test_every_spec_is_gated():
    for spec in all_specs():
        assert checks_for(spec.name), f"spec {spec.name!r} has no assertion suite"


def test_every_checked_spec_runs_under_a_gate():
    for spec in all_specs():
        if checks_for(spec.name):
            assert spec.name in FAST_CHECKED_SPECS or spec.name == "hardness-smoke", (
                f"the checks of {spec.name!r} run in no tier-1 test"
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
        ("smoke", "exact"),
        ("sec3-bounds", "baseline"),
        ("hong-kung", "fixed-order:belady"),
        ("eviction", "fixed-order:belady"),
        ("fig4-tradeoff", "tradeoff-opt"),
    ],
)
def test_checks_catch_a_drifted_cost(name, method):
    """The last cell of ``method`` drifts to 999: in an R sweep that is
    the largest R, where a rise breaks even the one-sided laws."""
    from dataclasses import replace

    results = Runner(jobs=0).run(get_spec(name))
    last = max(i for i, r in enumerate(results) if r.method == method)
    broken = [
        replace(r, cost="999") if i == last else r for i, r in enumerate(results)
    ]
    with pytest.raises(AssertionError, match=rf"\[{name}/"):
        run_spec_checks(name, broken)
