"""Catalogues in the code and their tables in the docs stay in sync.

Each check reads a source of truth from the code and compares it, in
both directions, with the places that mirror it: a name added on one
side and forgotten on the other fails.  The checks run on the
repository, and on copies of the files they read with one drift
injected, so that each check is shown to catch what it guards.
"""

import ast
import re
import shutil
from pathlib import Path

import pytest

from repro.experiments.methods import _FIXED
from repro.service.app import _STATUS_PHRASES
from repro.service.schema import ERROR_CODES

REPO = Path(__file__).resolve().parents[2]

#: every file the checks read, relative to the root they are given
SOURCES = (
    "src/repro/solvers/exact.py",
    "tests/solvers/test_engine_differential.py",
    "tests/solvers/test_golden_optima.py",
    "docs/architecture.md",
    "src/repro/generators/specs.py",
    "src/repro/experiments/methods.py",
    "docs/spec-grammar.md",
    "src/repro/service/app.py",
    "src/repro/service/schema.py",
    "docs/api.md",
)


def _tree(root, rel):
    return ast.parse((root / rel).read_text(encoding="utf-8"))


def _first_column(root, doc, header):
    """First cells of the rows of every markdown table headed ``| header |``."""
    cells, inside = [], False
    for line in (root / "docs" / doc).read_text(encoding="utf-8").splitlines():
        first = line.split("|")[1].strip() if line.startswith("|") else None
        if first == header or first is None:
            inside = first == header
        elif inside and not first.startswith("-"):
            cells.append(first)
    return cells


def _compared_to(fn, variable):
    """String constants ``fn`` compares ``variable`` against (==, !=)."""
    return {
        o.value
        for node in ast.walk(fn) if isinstance(node, ast.Compare)
        for o in (node.left, *node.comparators)
        if isinstance(o, ast.Constant) and isinstance(o.value, str)
        and any(getattr(x, "id", None) == variable
                for x in (node.left, *node.comparators))
    }


def _functions(root, rel, *names):
    return [n for n in _tree(root, rel).body
            if isinstance(n, ast.FunctionDef) and n.name in names]


def _dict_literal(root, rel, name):
    """The module-level dict literal bound to ``name``: constants only."""
    for node in _tree(root, rel).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(getattr(t, "id", None) == name for t in targets):
                return {
                    ast.literal_eval(k):
                        v.value if isinstance(v, ast.Constant) else None
                    for k, v in zip(node.value.keys, node.value.values)
                }
    raise LookupError(f"no dict literal {name} in {rel}")


def check_engines(root):
    (solve,) = _functions(root, "src/repro/solvers/exact.py", "solve_optimal")
    engines = _compared_to(solve, "engine")
    differential = next(
        ast.literal_eval(n.value)
        for n in ast.walk(_tree(root, "tests/solvers/test_engine_differential.py"))
        if isinstance(n, ast.Assign) and getattr(n.targets[0], "id", "") == "ENGINES"
    )
    # "bits" is the reference the differential battery compares against
    assert set(differential) == engines - {"bits"}
    golden = set()  # engine="x", solve_optimal_x(...), or the default
    for call in ast.walk(_tree(root, "tests/solvers/test_golden_optima.py")):
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name):
            kw = {k.arg: k.value for k in call.keywords}
            if call.func.id == "solve_optimal":
                golden.add(kw["engine"].value if "engine" in kw else "bits")
            elif call.func.id.startswith("solve_optimal_"):
                golden.add(call.func.id[len("solve_optimal_"):])
    assert engines <= golden
    documented = {c.strip('`"') for c in _first_column(root, "architecture.md", "engine")}
    assert documented == engines


def check_spec_grammar(root):
    kinds = set().union(*(
        _compared_to(fn, "kind")
        for fn in _functions(root, "src/repro/generators/specs.py", "dag_from_spec",
                             "graph_from_spec", "hierarchy_from_spec")
    ))
    documented = {
        entry.split(":")[0]
        for cell in _first_column(root, "spec-grammar.md", "spec")
        for entry in re.findall(r"`([^`]+)`", cell) if ":" in entry
    }
    assert documented == kinds
    methods = {
        key
        for cell in _first_column(root, "spec-grammar.md", "method")
        for key in re.findall(r"`([^`]+)`", cell)
    }
    assert methods == set(_dict_literal(root, "src/repro/experiments/methods.py", "_FIXED"))


def _ints(nodes):
    return {n.value for n in nodes if isinstance(n, ast.Constant)
            and type(n.value) is int and 100 <= n.value <= 599}


def check_service_statuses(root):
    # error_http_status maps every failed result onto ERROR_CODES
    produced = set(_dict_literal(root, "src/repro/service/schema.py", "ERROR_CODES").values())
    for node in ast.walk(_tree(root, "src/repro/service/app.py")):
        name = getattr(node, "func", None)
        if getattr(name, "id", getattr(name, "attr", "")) in ("_HttpError", "_respond"):
            produced |= _ints(node.args)
        elif isinstance(node, ast.Assign) and "status" in {
            getattr(t, "id", None) for t in ast.walk(node.targets[0])
        }:  # status, payload = 500, ...
            produced |= _ints(ast.walk(node.value))
    phrases = set(_dict_literal(root, "src/repro/service/app.py", "_STATUS_PHRASES"))
    assert produced <= phrases, "a status has no reason phrase"
    errors = {s for s in produced | phrases if s >= 400}
    assert {int(c) for c in _first_column(root, "api.md", "HTTP")} == errors


def test_catalogues_are_read_as_the_modules_define_them():
    # the checks parse these dicts from source; a dict built at import
    # time would hide keys from them, so pin the parse to the runtime
    assert set(_dict_literal(REPO, "src/repro/experiments/methods.py", "_FIXED")) == set(_FIXED)
    assert _dict_literal(REPO, "src/repro/service/app.py", "_STATUS_PHRASES") == _STATUS_PHRASES
    assert _dict_literal(REPO, "src/repro/service/schema.py", "ERROR_CODES") == ERROR_CODES


def test_engines_match_differential_golden_tests_and_architecture_matrix():
    check_engines(REPO)


def test_spec_kinds_and_methods_match_the_grammar_page():
    check_spec_grammar(REPO)


def test_service_statuses_match_phrases_and_the_api_error_table():
    check_service_statuses(REPO)


#: name -> (check, [(file, pattern, replacement), ...]): one drift each
DRIFTS = {
    "engine-branch-nowhere-else": (check_engines, [
        ("src/repro/solvers/exact.py", r'engine == "numpy":',
         'engine == "numpy" or engine == "turbo":'),
    ]),
    "engine-row-deleted": (check_engines, [
        ("docs/architecture.md", r'^\| `"numpy"`.*\n', ""),
    ]),
    "engine-row-without-code": (check_engines, [
        ("docs/architecture.md", r'^(\| `"numpy"`.*\n)',
         r'\1| `"turbo"` | `solvers/turbo.py` | - | - | - |\n'),
    ]),
    "engine-left-out-of-differential": (check_engines, [
        ("tests/solvers/test_engine_differential.py",
         r'^ENGINES = \("numpy",\)', 'ENGINES = ()'),
    ]),
    "engine-left-out-of-golden": (check_engines, [
        ("tests/solvers/test_golden_optima.py", r'\(inst, engine="numpy"', "(inst"),
    ]),
    "dag-kind-undocumented": (check_spec_grammar, [
        ("src/repro/generators/specs.py", r'kind == "chain":',
         'kind == "chain" or kind == "mystery":'),
    ]),
    "graph-kind-undocumented": (check_spec_grammar, [
        ("src/repro/generators/specs.py", r'kind == "path":',
         'kind == "path" or kind == "trail":'),
    ]),
    "hierarchy-kind-undocumented": (check_spec_grammar, [
        ("src/repro/generators/specs.py", r'kind != "hier":',
         'kind != "hier" and kind != "tier":'),
    ]),
    "spec-row-without-code": (check_spec_grammar, [
        ("docs/spec-grammar.md", r"^(\| `chain:N` .*\n)",
         r"\1| `mystery:N` | not built by any branch |\n"),
    ]),
    "method-key-undocumented": (check_spec_grammar, [
        ("src/repro/experiments/methods.py", r'^(    "baseline": _run_baseline,\n)',
         r'\1    "secret:method": _run_baseline,\n'),
    ]),
    "method-row-deleted": (check_spec_grammar, [
        ("docs/spec-grammar.md", r"^\| `exact:numpy` .*\n", ""),
    ]),
    "method-row-without-code": (check_spec_grammar, [
        ("docs/spec-grammar.md", r"^(\| `baseline` .*\n)",
         r"\1| `ghost:method` | registered nowhere |\n"),
    ]),
    "status-without-phrase": (check_service_statuses, [
        ("src/repro/service/app.py", r'_HttpError\(404, "not-found"',
         '_HttpError(418, "teapot"'),
    ]),
    "status-undocumented": (check_service_statuses, [
        ("src/repro/service/app.py", r'_HttpError\(404, "not-found"',
         '_HttpError(418, "teapot"'),
        ("src/repro/service/app.py", r'^(    413: "Payload Too Large",\n)',
         r'\1    418: "Teapot",\n'),
    ]),
    "error-code-undocumented": (check_service_statuses, [
        ("src/repro/service/schema.py", r'^(    "timeout": 504,.*\n)',
         r'\1    "teapot": 418,\n'),
        ("src/repro/service/app.py", r'^(    413: "Payload Too Large",\n)',
         r'\1    418: "Teapot",\n'),
    ]),
    "phrase-undocumented": (check_service_statuses, [
        ("src/repro/service/app.py", r'^(    413: "Payload Too Large",\n)',
         r'\1    418: "Teapot",\n'),
    ]),
    "error-row-without-status": (check_service_statuses, [
        ("docs/api.md", r"^(\| 413 .*\n)", r"\1| 418 | `teapot` | short and stout |\n"),
    ]),
    "error-row-deleted": (check_service_statuses, [
        ("docs/api.md", r"^\| 411 .*\n", ""),
    ]),
}


@pytest.mark.parametrize("name", sorted(DRIFTS))
def test_sync_check_catches_drift(name, tmp_path):
    check, edits = DRIFTS[name]
    for rel in SOURCES:
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(REPO / rel, tmp_path / rel)
    check(tmp_path)  # the undrifted copy is in sync
    for rel, pattern, replacement in edits:
        text = (tmp_path / rel).read_text(encoding="utf-8")
        text, hits = re.subn(pattern, replacement, text, flags=re.M)
        assert hits, f"{pattern!r} not found in {rel}"
        (tmp_path / rel).write_text(text, encoding="utf-8")
    with pytest.raises(AssertionError):
        check(tmp_path)
