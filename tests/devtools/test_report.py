"""The JSON report schema is versioned and pinned here.

CI consumers parse ``repro-pebble check --format json``; growing the
payload is fine, renaming or removing keys is a breaking change that
must bump ``JSON_FORMAT``.
"""

import json
from pathlib import Path

import pytest

from repro.devtools import (
    RepoIndex,
    all_rules,
    get_rule,
    render_json,
    render_text,
    run_check,
)
from repro.devtools.report import JSON_FORMAT, Finding, Fix

FIXTURES = Path(__file__).resolve().parent / "fixtures"

_FINDING = Finding(
    rule="RP001",
    severity="error",
    path="src/repro/solvers/batch_kernel.py",
    line=12,
    col=4,
    message="example",
)

_FIXABLE = Finding(
    rule="RP012",
    severity="error",
    path="src/repro/solvers/kernel.py",
    line=3,
    col=8,
    message="fixable example",
    fix=Fix(line=3, col=8, end_line=3, end_col=11, replacement="1"),
)


def test_json_schema_is_stable():
    payload = json.loads(render_json([_FINDING], checked_rules=all_rules()))
    assert payload["format"] == JSON_FORMAT == "repro-pebble/check/v1"
    assert set(payload) == {"format", "ok", "rules", "findings", "counts"}
    assert payload["ok"] is False
    assert payload["counts"] == {"RP001": 1}
    (finding,) = payload["findings"]
    assert set(finding) == {
        "rule", "severity", "path", "line", "col", "message", "fix",
    }
    assert finding["fix"] is None
    for rule in payload["rules"]:
        assert set(rule) == {
            "id", "name", "severity", "autofixable", "scope", "description",
        }


def test_json_fix_payload():
    payload = json.loads(render_json([_FIXABLE], checked_rules=all_rules()))
    (finding,) = payload["findings"]
    assert finding["fix"] == {
        "line": 3, "col": 8, "end_line": 3, "end_col": 11, "replacement": "1",
    }


def test_json_clean_run_is_ok():
    payload = json.loads(render_json([], checked_rules=all_rules()))
    assert payload["ok"] is True
    assert payload["findings"] == []
    assert payload["counts"] == {}


def test_text_report_lines():
    text = render_text([_FINDING], checked_rules=all_rules())
    first, summary = text.splitlines()
    assert first == (
        "src/repro/solvers/batch_kernel.py:12:4 RP001 [error] example"
    )
    assert "1 finding(s)" in summary and "RP001=1" in summary
    fixable_line = render_text([_FIXABLE], checked_rules=all_rules()).splitlines()[0]
    assert fixable_line.endswith("(autofixable)")
    clean = render_text([], checked_rules=all_rules())
    assert clean == "clean: 11 rule(s), 0 findings"


# --------------------------------------------------------------------- #
# golden JSON reports: one per dataflow rule, byte-for-byte
# --------------------------------------------------------------------- #

_GOLDEN_CASES = {
    "RP007": (FIXTURES, ["rp007_leaks.py"]),
    "RP008": (FIXTURES / "rp008_contract", None),
    "RP011": (FIXTURES, ["rp011_dupes.py"]),
    "RP012": (FIXTURES, ["rp012_floats.py"]),
}


@pytest.mark.parametrize("rule_id", sorted(_GOLDEN_CASES))
def test_golden_json_report(rule_id):
    root, paths = _GOLDEN_CASES[rule_id]
    rule = get_rule(rule_id)
    findings = run_check(RepoIndex(root, paths=paths), rules=[rule])
    assert findings, f"{rule_id} fixture must produce findings"
    rendered = render_json(findings, checked_rules=[rule]) + "\n"
    golden = FIXTURES / "golden" / f"{rule_id.lower()}.json"
    assert rendered == golden.read_text(encoding="utf-8")
