"""``repro-pebble check`` exit codes and output plumbing."""

import json
from pathlib import Path

import pytest

from repro.cli import main

FIXTURES = Path(__file__).resolve().parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]
RULE_IDS = [f"RP{i:03d}" for i in (*range(9), 11, 12)]


def test_check_is_green_on_the_repo(capsys):
    assert main(["check", "--root", str(REPO_ROOT)]) == 0
    assert "clean: 11 rule(s), 0 findings" in capsys.readouterr().out


@pytest.mark.parametrize(
    "tree",
    ["rp002_drift", "rp004_drift", "rp005_drift", "rp008_contract"],
)
def test_check_fails_on_each_drift_tree(tree, capsys):
    assert main(["check", "--root", str(FIXTURES / tree)]) == 1
    assert tree.split("_")[0].upper() in capsys.readouterr().out


def test_check_json_output(capsys):
    code = main([
        "check", "--root", str(FIXTURES / "rp004_drift"), "--format", "json",
    ])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["format"] == "repro-pebble/check/v1"
    assert payload["ok"] is False
    assert payload["counts"] == {"RP004": 2}


def test_check_select_limits_the_rule_set(capsys):
    # the rp004 drift tree is clean under RP005 alone
    code = main([
        "check", "--root", str(FIXTURES / "rp004_drift"), "--select", "RP005",
    ])
    assert code == 0
    assert "1 rule(s)" in capsys.readouterr().out


def test_check_ignore_drops_a_rule():
    code = main([
        "check", "--root", str(FIXTURES / "rp004_drift"), "--ignore", "RP004",
    ])
    assert code == 0


def test_check_rejects_unknown_rule_ids():
    with pytest.raises(SystemExit, match="unknown rule"):
        main(["check", "--root", str(REPO_ROOT), "--select", "RP999"])


def test_check_list_rules(capsys):
    assert main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULE_IDS:
        assert rule_id in out
    assert "[autofixable]" in out


# --------------------------------------------------------------------- #
# --fix / --baseline / --changed-only plumbing
# --------------------------------------------------------------------- #


def _scratch_tree(tmp_path, *names):
    (tmp_path / "src").mkdir()
    for name in names:
        target = tmp_path / "src" / name
        target.write_text(
            (FIXTURES / name).read_text(encoding="utf-8"), encoding="utf-8"
        )
    return tmp_path


def test_check_fix_converges_and_is_idempotent(tmp_path, capsys):
    root = _scratch_tree(tmp_path, "rp011_dupes.py", "rp012_floats.py")
    args = ["check", "--root", str(root), "--select", "RP011",
            "--select", "RP012"]
    assert main(args) == 1
    capsys.readouterr()
    assert main([*args, "--fix"]) == 0
    out = capsys.readouterr().out
    assert "fixed: 7 finding(s) rewritten in place" in out
    assert "clean: 2 rule(s), 0 findings" in out
    before = (root / "src" / "rp011_dupes.py").read_text(encoding="utf-8")
    # a clean tree stays byte-identical under a second --fix pass
    assert main([*args, "--fix"]) == 0
    assert (root / "src" / "rp011_dupes.py").read_text(encoding="utf-8") == before
    assert "fixed:" not in capsys.readouterr().out


def test_check_baseline_roundtrip(tmp_path, capsys):
    root = _scratch_tree(tmp_path, "rp012_floats.py")
    baseline = tmp_path / "baseline.json"
    args = ["check", "--root", str(root), "--select", "RP012"]
    assert main([*args, "--baseline", str(baseline), "--update-baseline"]) == 0
    assert "5 finding(s) written" in capsys.readouterr().out
    # every current finding is baselined: the gate passes
    assert main([*args, "--baseline", str(baseline)]) == 0
    # new drift beyond the baseline still fails
    mod = root / "src" / "rp012_floats.py"
    mod.write_text(
        mod.read_text(encoding="utf-8") + "\n\nextra_cost = 9.0\n",
        encoding="utf-8",
    )
    capsys.readouterr()
    assert main([*args, "--baseline", str(baseline)]) == 1
    assert "extra_cost" in capsys.readouterr().out


def test_check_update_baseline_requires_baseline():
    with pytest.raises(SystemExit, match="--update-baseline requires"):
        main(["check", "--root", str(REPO_ROOT), "--update-baseline"])


def test_check_baseline_missing_file_errors(tmp_path):
    with pytest.raises(SystemExit, match="baseline"):
        main(["check", "--root", str(REPO_ROOT), "--baseline",
              str(tmp_path / "missing.json")])


def test_check_changed_only_outside_git_checks_everything(tmp_path):
    # not a git repo: --changed-only degrades to a full check
    root = _scratch_tree(tmp_path, "rp012_floats.py")
    assert main(["check", "--root", str(root), "--select", "RP012",
                 "--changed-only"]) == 1
