"""``repro-pebble check``: one option, exit codes and the text report."""

from pathlib import Path

import pytest

from repro.cli import main

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def test_check_is_green_on_a_clean_tree(tmp_path, capsys):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "clean.py").write_text(
        "def add(a, b):\n    return a + b\n", encoding="utf-8"
    )
    assert main(["check", "--root", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "clean: 7 rule(s), 0 findings\n"


def test_check_fails_on_the_rp008_tree_with_one_line_per_finding(capsys):
    assert main(["check", "--root", str(FIXTURES / "rp008_contract")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith(
        "src/repro/solvers/engine.py:14:0 RP008 raise KeyError here"
    )
    assert lines[1].startswith(
        "src/repro/solvers/engine.py:29:0 RP008 raise RuntimeError here"
    )
    assert lines[2] == "2 finding(s) (RP008=2) from 7 rule(s)"


def test_check_offers_only_root(capsys):
    with pytest.raises(SystemExit) as info:
        main(["check", "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert "--root" in out
    options = {word.strip("[],") for word in out.split() if word.startswith("--")}
    assert options == {"--help", "--root"}


def test_check_reports_each_finding_then_counts_per_rule(tmp_path, capsys):
    # packed-state modules by path, so RP001 and RP012 apply to both
    for rel, body in (("core/bitstate.py", "def relax(g):\n    return g + 1.0\n"),
                      ("solvers/kernel.py", "def lane(x):\n    return x << 64\n")):
        path = tmp_path / "src" / "repro" / rel
        path.parent.mkdir(parents=True)
        path.write_text(body, encoding="utf-8")
    assert main(["check", "--root", str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" ", 2)[:2] for line in lines[:-1]] == [
        ["src/repro/core/bitstate.py:2:15", "RP012"],
        ["src/repro/solvers/kernel.py:2:11", "RP001"],
    ]
    # the summary counts by rule id, whatever order the findings came in
    assert lines[-1] == "2 finding(s) (RP001=1, RP012=1) from 7 rule(s)"
