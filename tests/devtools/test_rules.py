"""Each RPxxx rule fires on its known-violation fixture — and only there.

The fixtures live in ``tests/devtools/fixtures/`` (excluded from both
pytest collection and the analyzer's default scan).  Per-file rules get
a single deliberately broken module; the cross-file sync rules get
miniature repo trees with one injected drift each.
"""

from pathlib import Path

import pytest

from repro.devtools import RepoIndex, all_rules, get_rule, run_check, select_rules

FIXTURES = Path(__file__).resolve().parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def _findings(root, rule_id, paths=None):
    index = RepoIndex(root, paths=paths)
    return run_check(index, rules=[get_rule(rule_id)])


# --------------------------------------------------------------------- #
# per-file rules: one broken module each
# --------------------------------------------------------------------- #


def test_rp001_fires_on_packed_fixture():
    found = _findings(FIXTURES, "RP001", paths=["rp001_packed.py"])
    assert len(found) == 5
    assert {f.rule for f in found} == {"RP001"}
    messages = " | ".join(f.message for f in found)
    assert "shifted by literal 64" in messages
    assert "65 bits" in messages
    assert "without an explicit dtype" in messages
    assert "int32" in messages
    assert "uint32" in messages
    # the canonical (1 << 64) - 1 mask idiom on line 5 is NOT flagged
    assert all(f.line != 5 for f in found)


def test_rp003_fires_on_fork_fixture():
    found = _findings(FIXTURES, "RP003", paths=["rp003_forks.py"])
    assert len(found) == 4
    messages = " | ".join(f.message for f in found)
    assert "lambda as process target" in messages
    assert "bound attribute" in messages
    assert "nested function" in messages


def test_rp006_fires_on_flaky_fixture():
    found = _findings(FIXTURES, "RP006", paths=["rp006_flaky.py"])
    assert len(found) == 5
    messages = " | ".join(f.message for f in found)
    assert "unseeded global generator" in messages
    assert "numpy's unseeded global" in messages
    assert "wall clock" in messages
    assert "inside an assert" in messages


def test_rp007_fires_on_leak_fixture():
    found = _findings(FIXTURES, "RP007", paths=["rp007_leaks.py"])
    assert [(f.line, f.message.split("'")[1]) for f in found] == [
        (15, "conn"), (24, "child"), (30, "pool"),
    ]
    messages = " | ".join(f.message for f in found)
    # one finding per leaked name; the clean control idioms stay silent
    assert "sqlite3.connect(...)" in messages
    assert "Pipe(...)" in messages
    assert "Pool(...)" in messages
    assert "clean_" not in messages


def test_rp011_fires_on_duplicate_dispatch_fixture():
    found = _findings(FIXTURES, "RP011", paths=["rp011_dupes.py"])
    assert len(found) == 2
    assert all(f.fix is not None for f in found)
    messages = " | ".join(f.message for f in found)
    assert "`kind == 'chain'` already dispatched at line 11" in messages
    assert "`kind.startswith('tree:')` already dispatched at line 17" in messages


def test_rp012_fires_on_float_cost_fixture():
    found = _findings(FIXTURES, "RP012", paths=["rp012_floats.py"])
    assert len(found) == 5
    assert all(f.fix is not None for f in found)
    messages = " | ".join(f.message for f in found)
    for cost in ("'g'", "'best'", "'incumbent'", "'bound'"):
        assert cost in messages
    # the timing float in poll_interval() is not cost vocabulary
    assert "0.005" not in messages


# --------------------------------------------------------------------- #
# cross-file rules: miniature repo trees with injected drift
# --------------------------------------------------------------------- #


def test_rp002_fires_on_engine_drift_tree():
    found = _findings(FIXTURES / "rp002_drift", "RP002")
    messages = [f.message for f in found]
    assert any('engine "turbo" is dispatched' in m for m in messages)
    assert any('ENGINES lists "ghost"' in m for m in messages)
    assert any('"turbo" has no golden-optima coverage' in m for m in messages)
    assert any('"turbo" has no row' in m for m in messages)
    assert any('documents engine "retired"' in m for m in messages)
    assert len(found) == 5
    # covered engines produce no findings
    assert not any('"legacy"' in m or '"bits"' in m for m in messages)


def test_rp004_fires_on_registry_drift_tree():
    found = _findings(FIXTURES / "rp004_drift", "RP004")
    messages = [f.message for f in found]
    assert any('spec kind "mystery:"' in m for m in messages)
    assert any('method "secret:method"' in m for m in messages)
    assert len(found) == 2


def test_rp005_fires_on_service_drift_tree():
    found = _findings(FIXTURES / "rp005_drift", "RP005")
    messages = [f.message for f in found]
    assert any("418 is produced but has no _STATUS_PHRASES" in m
               for m in messages)
    assert any("418 can reach clients but is missing" in m for m in messages)
    assert any("documents status 404" in m for m in messages)
    assert len(found) == 3


def test_rp008_fires_on_contract_tree():
    found = _findings(FIXTURES / "rp008_contract", "RP008")
    assert [(f.path, f.line) for f in found] == [
        ("src/repro/solvers/engine.py", 14),
        ("src/repro/solvers/engine.py", 29),
    ]
    messages = " | ".join(f.message for f in found)
    assert "raise KeyError here can escape" in messages
    assert "raise RuntimeError here can escape" in messages
    assert "solve_fixture" in messages
    # ValueError and the PebblingError subclass are inside the contract,
    # and the LookupError-masked _probe() path is not flagged
    assert "ValueError here" not in messages
    assert "SolverError" not in messages


# --------------------------------------------------------------------- #
# the repository itself is clean — the CI gate's contract
# --------------------------------------------------------------------- #


def test_repo_is_clean_under_all_rules():
    index = RepoIndex(REPO_ROOT)
    assert run_check(index) == []


def test_fixture_trees_are_excluded_from_the_default_scan():
    index = RepoIndex(REPO_ROOT)
    assert index.module("tests/devtools/fixtures/rp001_packed.py") is None


# --------------------------------------------------------------------- #
# suppressions and rule selection
# --------------------------------------------------------------------- #


def test_noqa_requires_the_rule_id(tmp_path):
    src = (
        '"""devtools: packed-state"""\n'
        "import numpy as np\n"
        "a = np.zeros(3)  # noqa: RP001\n"
        "b = np.zeros(3)  # noqa\n"
        "c = np.zeros(3)  # noqa: RP006\n"
    )
    (tmp_path / "mod.py").write_text(src, encoding="utf-8")
    found = _findings(tmp_path, "RP001", paths=["mod.py"])
    # only the line with the matching id is suppressed
    assert [f.line for f in found] == [4, 5]


def test_select_and_ignore():
    assert [r.id for r in select_rules(select=["rp001", "RP005"])] == [
        "RP001", "RP005",
    ]
    assert "RP003" not in {r.id for r in select_rules(ignore=["RP003"])}
    with pytest.raises(ValueError, match="unknown rule"):
        select_rules(select=["RP999"])
    with pytest.raises(ValueError, match="unknown rule"):
        select_rules(ignore=["XX000"])


def test_rule_catalogue_shape():
    rules = all_rules()
    assert [r.id for r in rules] == [f"RP{i:03d}" for i in (*range(9), 11, 12)]
    for r in rules:
        assert r.severity in ("error", "warning")
        assert r.scope in ("file", "repo")
        assert r.description
    autofixable = {r.id for r in rules if r.autofixable}
    assert autofixable == {"RP000", "RP001", "RP011", "RP012"}
    assert get_rule("RP000").severity == "warning"


def test_noqa_comma_list_suppresses_each_listed_rule(tmp_path):
    src = (
        '"""devtools: packed-state and devtools: spec-grammar"""\n'
        "import numpy as np\n"
        "\n"
        "\n"
        "def pick(kind, g):\n"
        '    if kind == "a":\n'
        "        return 1\n"
        '    if kind == "a":  # noqa: RP011,RP012\n'
        "        return 1\n"
        "    bad_cost = g + 1.0  # noqa: RP012, RP011\n"
        "    return bad_cost\n"
    )
    (tmp_path / "mod.py").write_text(src, encoding="utf-8")
    index = RepoIndex(tmp_path, paths=["mod.py"])
    found = run_check(
        index, rules=[get_rule("RP011"), get_rule("RP012")]
    )
    assert found == []


def test_noqa_inside_strings_is_not_a_directive(tmp_path):
    src = (
        '"""devtools: packed-state\n'
        "\n"
        "Docs may *mention* ``# noqa: RP012`` without suppressing it.\n"
        '"""\n'
        "\n"
        "\n"
        "def f(g):\n"
        '    text = "# noqa: RP012"\n'
        "    bad_cost = g + 1.0\n"
        "    return bad_cost, text\n"
    )
    (tmp_path / "mod.py").write_text(src, encoding="utf-8")
    found = _findings(tmp_path, "RP012", paths=["mod.py"])
    assert [f.line for f in found] == [9]


def test_rp000_reports_unused_noqa(tmp_path):
    src = (
        '"""devtools: packed-state"""\n'
        "\n"
        "\n"
        "def f(g):\n"
        "    good = g + 1  # noqa: RP012\n"
        "    bad_cost = g + 1.0  # noqa: RP012\n"
        "    return good, bad_cost\n"
    )
    (tmp_path / "mod.py").write_text(src, encoding="utf-8")
    index = RepoIndex(tmp_path, paths=["mod.py"])
    found = run_check(index, rules=[get_rule("RP000"), get_rule("RP012")])
    # line 6's noqa is used (suppresses RP012); line 5's is dead weight
    assert [(f.rule, f.line) for f in found] == [("RP000", 5)]
    assert found[0].severity == "warning"
    assert "RP012" in found[0].message
    assert found[0].fix is not None


def test_rp000_not_reported_unless_selected(tmp_path):
    src = (
        '"""devtools: packed-state"""\n'
        "\n"
        "x = 1  # noqa: RP012\n"
    )
    (tmp_path / "mod.py").write_text(src, encoding="utf-8")
    assert _findings(tmp_path, "RP012", paths=["mod.py"]) == []
