"""Each RPxxx rule fires on its known-violation fixture — and only there.

The fixtures live in ``tests/devtools/fixtures/`` (excluded from both
pytest collection and the analyzer's default scan).  Per-file rules get
a single deliberately broken module; RP008 gets a miniature repo tree.
The dataflow rules (RP007, RP008, RP011, RP012) pin every finding's
``(path, line, col, message)``.
"""

import textwrap
from pathlib import Path

import pytest

from repro.devtools import RepoIndex, all_rules, get_rule, run_check
from repro.devtools.rules import rule

FIXTURES = Path(__file__).resolve().parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def _findings(root, rule_id, paths=None):
    index = RepoIndex(root, paths=paths)
    return run_check(index, rules=[get_rule(rule_id)])


def _pinned(found):
    return [(f.path, f.line, f.col, f.message) for f in found]


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


_LEAK = (
    "resource '{}' from {}(...) can reach a normal exit of {}() without "
    "close/retire on some path; release it on every branch, use a context "
    "manager, or transfer ownership"
)


def test_rp007_fires_on_leak_fixture():
    found = _findings(FIXTURES, "RP007", paths=["rp007_leaks.py"])
    # one finding per leaked name; the clean_* control idioms stay silent
    assert _pinned(found) == [
        ("rp007_leaks.py", 15, 4,
         _LEAK.format("conn", "sqlite3.connect", "leak_on_early_return")),
        ("rp007_leaks.py", 24, 4,
         _LEAK.format("child", "Pipe", "leak_second_pipe_end")),
        ("rp007_leaks.py", 30, 4,
         _LEAK.format("pool", "Pool", "leak_on_skipped_branch")),
    ]


def test_rp011_fires_on_duplicate_dispatch_fixture():
    found = _findings(FIXTURES, "RP011", paths=["rp011_dupes.py"])
    assert _pinned(found) == [
        ("rp011_dupes.py", 15, 4,
         "duplicate dispatch branch in parse_kind(): `kind == 'chain'` "
         "already dispatched at line 11, so this branch is dead"),
        ("rp011_dupes.py", 19, 4,
         "duplicate dispatch branch in parse_kind(): "
         "`kind.startswith('tree:')` already dispatched at line 17, so "
         "this branch is dead"),
    ]


_FLOAT = (
    "float literal {} {} integer-scaled cost '{}': kernel costs are "
    "LCM-scaled ints — use {} (or route the value through Fraction at the "
    "boundary)"
)


def test_rp012_fires_on_float_cost_fixture():
    found = _findings(FIXTURES, "RP012", paths=["rp012_floats.py"])
    # the timing float in poll_interval() is not cost vocabulary
    assert _pinned(found) == [
        ("rp012_floats.py", 10, 15, _FLOAT.format("1.0", "mixes into", "g", 1)),
        ("rp012_floats.py", 11, 14,
         _FLOAT.format("100.0", "compares against", "best", 100)),
        ("rp012_floats.py", 13, 16,
         _FLOAT.format("0.0", "assigned to", "incumbent", 0)),
        ("rp012_floats.py", 15, 21,
         _FLOAT.format("2.0", "assigned to", "incumbent", 2)),
        ("rp012_floats.py", 16, 24,
         _FLOAT.format("1.0", "mixes into", "bound", 1)),
    ]


# --------------------------------------------------------------------- #
# per-file rules on one small module each: the scope gates, the legal
# idioms the rules must stay silent on, and one violation per shape
# --------------------------------------------------------------------- #

#: id -> (rule, path of the module, its source, [(line, col, fragment)])
SNIPPETS = {
    "rp001-shift-inside-the-lane-and-the-mask-idiom": ("RP001", "snippet.py", """
        # devtools: packed-state
        def f(x):
            return x << 63, 1 << 64
    """, []),
    "rp001-right-shift-past-the-lane": ("RP001", "snippet.py", """
        # devtools: packed-state
        def f(x):
            return x >> 70
    """, [(3, 11, "value shifted by literal 70 >= 64")]),
    "rp001-narrow-dtype-as-string": ("RP001", "snippet.py", """
        # devtools: packed-state
        import numpy as np
        A = np.zeros(3, dtype="uint16")
        B = np.zeros(3, dtype=bool)
        C = np.arange(4, dtype=np.int64)
    """, [(3, 22, "dtype uint16 is narrower than the 64-bit lane")]),
    "rp001-unmarked-module-is-out-of-scope": ("RP001", "snippet.py", """
        import numpy as np
        def f(x):
            return x << 64, np.zeros(3)
    """, []),
    "rp001-packed-module-path-and-plain-numpy-import": (
        "RP001", "src/repro/core/bitstate.py", """
        import numpy
        LANES = numpy.empty(2)
    """, [(2, 8, "numpy.empty(...) without an explicit dtype")]),
    "rp003-module-level-and-parameter-targets": ("RP003", "snippet.py", """
        # devtools: src
        def _loop(conn):
            conn.close()

        def start(ctx, fn):
            return ctx.Process(target=_loop), ctx.Process(target=fn)
    """, []),
    "rp003-lambda-through-spawn-pipe-worker": ("RP003", "src/repro/x.py", """
        from repro.experiments.backends import spawn_pipe_worker

        def start(ctx):
            return spawn_pipe_worker(ctx, lambda conn: None)
    """, [(4, 34, "lambda as process target")]),
    "rp003-tests-are-out-of-scope": ("RP003", "tests/test_x.py", """
        def test_start(ctx):
            return ctx.Process(target=lambda: None)
    """, []),
    "rp006-seeded-generators": ("RP006", "tests/test_x.py", """
        import random
        import numpy as np

        def test_seeded():
            assert random.Random(3).random() < 1
            assert np.random.default_rng(1).random() < 1
    """, []),
    "rp006-utcnow-reads-the-wall-clock": ("RP006", "tests/test_x.py", """
        from datetime import datetime

        def test_stamp():
            return datetime.utcnow()
    """, [(4, 11, "datetime.utcnow(...) reads the wall clock")]),
    "rp006-timer-read-inside-the-assert-only": ("RP006", "tests/test_x.py", """
        import time

        def test_fast():
            t = time.monotonic()
            assert time.monotonic() - t < 5
    """, [(5, 11, "time.monotonic(...) inside an assert")]),
    "rp006-test-helper-modules-are-out-of-scope": ("RP006", "tests/helpers.py", """
        import random
        def pick():
            return random.random()
    """, []),
    "rp007-with-del-and-argument-release-or-transfer": ("RP007", "src/repro/x.py", """
        import sqlite3

        def f(p):
            conn = sqlite3.connect(p)
            with conn:
                conn.execute("select 1")

        def g(p):
            conn = sqlite3.connect(p)
            conn.execute("select 1")
            del conn

        def h(p, registry):
            conn = sqlite3.connect(p)
            registry.adopt(conn)
    """, []),
    "rp007-early-return-inside-a-loop": ("RP007", "src/repro/x.py", """
        import sqlite3

        def f(p, rows):
            conn = sqlite3.connect(p)
            for row in rows:
                if row is None:
                    return None
            conn.close()
    """, [(4, 4, "resource 'conn' from sqlite3.connect(...)")]),
    "rp007-raise-paths-are-not-normal-exits": ("RP007", "src/repro/x.py", """
        import sqlite3

        def f(p, bad):
            conn = sqlite3.connect(p)
            if bad:
                raise ValueError(p)
            conn.close()
    """, []),
    "rp007-finally-then-straight-line-release": ("RP007", "src/repro/x.py", """
        def f(ctx, items):
            parent, child = ctx.Pipe()
            try:
                for x in items:
                    parent.send(x)
            finally:
                parent.close()
            child.close()
    """, []),
    "rp011-first-branch-falls-through": ("RP011", "snippet.py", """
        # devtools: spec-grammar
        def parse(kind):
            if kind == "chain":
                note = 1
            if kind == "chain":
                return ("chain", note)
            return None
    """, []),
    "rp011-constant-on-the-left": ("RP011", "snippet.py", """
        # devtools: spec-grammar
        def parse(kind):
            if "chain" == kind:
                return 1
            if kind == "chain":
                return 2
    """, [(5, 4, "`kind == 'chain'` already dispatched at line 3")]),
    "rp011-separate-functions-do-not-clash": ("RP011", "snippet.py", """
        # devtools: spec-grammar
        def parse_dag(kind):
            if kind == "chain":
                return 1

        def parse_graph(kind):
            if kind == "chain":
                return 2
    """, []),
    "rp011-spec-module-path-and-not-equal-guard": (
        "RP011", "src/repro/generators/specs.py", """
        def parse(kind):
            if kind != "hier":
                raise ValueError(kind)
            if kind != "hier":
                raise ValueError(kind)
    """, [(4, 4, "`kind != 'hier'` already dispatched at line 2")]),
    "rp012-timing-float-is-not-a-cost": ("RP012", "snippet.py", """
        # devtools: packed-state
        def wait(conn, g):
            conn.poll(0.005)
            return g + 1
    """, []),
    "rp012-non-integral-float-asks-for-a-scaled-int": ("RP012", "snippet.py", """
        # devtools: packed-state
        def relax(g):
            h = g + 0.5
            return h
    """, [(3, 12, "0.5 mixes into integer-scaled cost 'g': kernel costs are "
                  "LCM-scaled ints — use a scaled int")]),
    "rp012-kernel-module-path-and-cost-attribute": (
        "RP012", "src/repro/solvers/kernel.py", """
        class Search:
            def reset(self):
                self.lower_bound = 1.0
    """, [(3, 27, "float literal 1.0 assigned to integer-scaled cost 'lower_bound'")]),
}


@pytest.mark.parametrize("case", sorted(SNIPPETS))
def test_rule_on_snippet(case, tmp_path):
    rule_id, rel, source, expected = SNIPPETS[case]
    (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
    (tmp_path / rel).write_text(textwrap.dedent(source).lstrip("\n"), encoding="utf-8")
    found = _findings(tmp_path, rule_id, paths=[rel])
    assert [(f.line, f.col) for f in found] == [(ln, col) for ln, col, _ in expected]
    for f, (_, _, fragment) in zip(found, expected):
        assert fragment in f.message


# --------------------------------------------------------------------- #
# cross-file rule: a miniature repo tree
# --------------------------------------------------------------------- #

_ESCAPE = (
    "raise {} here can escape public solver entry point(s) solve_fixture; "
    "the contract allows only PebblingError subclasses and ValueError — "
    "convert the raise or catch it at the boundary"
)


def test_rp008_fires_on_contract_tree():
    found = _findings(FIXTURES / "rp008_contract", "RP008")
    # ValueError and the PebblingError subclass are inside the contract,
    # and the LookupError-masked _probe() path is not flagged
    assert _pinned(found) == [
        ("src/repro/solvers/engine.py", 14, 0, _ESCAPE.format("KeyError")),
        ("src/repro/solvers/engine.py", 29, 0, _ESCAPE.format("RuntimeError")),
    ]


# --------------------------------------------------------------------- #
# the repository itself is clean — the CI gate's contract
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def repo_index():
    return RepoIndex(REPO_ROOT)


def test_repo_is_clean_under_all_rules(repo_index):
    assert run_check(repo_index) == []


def test_fixture_trees_are_excluded_from_the_default_scan(repo_index):
    assert repo_index.module("tests/devtools/fixtures/rp001_packed.py") is None
    # only a results/ *directory* is skipped, not a module named results
    assert repo_index.module("src/repro/experiments/results.py") is not None


def test_rule_catalogue_shape():
    rules = all_rules()
    assert [r.id for r in rules] == [
        "RP001", "RP003", "RP006", "RP007", "RP008", "RP011", "RP012",
    ]
    for r in rules:
        assert r.scope in ("file", "repo")
        assert r.description
    assert get_rule("rp008").scope == "repo"


# --------------------------------------------------------------------- #
# the framework: registry, index and unparseable files
# --------------------------------------------------------------------- #


def test_registry_rejects_unknown_ids_bad_scopes_and_duplicates():
    with pytest.raises(KeyError, match="known: RP001, RP003"):
        get_rule("RP999")
    with pytest.raises(ValueError, match="bad scope"):
        rule("RP998", "nowhere", scope="dir", description="-")
    with pytest.raises(ValueError, match="duplicate rule id RP001"):
        rule("RP001", "again", description="-")(lambda module, index: [])


def test_index_skips_excluded_directories_at_any_depth(tmp_path):
    for rel in ("src/a.py", "src/__pycache__/b.py", "src/pkg/.hypothesis/c.py",
                "src/results/d.py", "src/results.py", "tests/devtools/fixtures/e.py",
                "tests/test_f.py", "src/notes.txt"):
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text("X = 1\n", encoding="utf-8")
    index = RepoIndex(tmp_path)
    assert [m.rel for m in index.modules()] == [
        "src/a.py", "src/results.py", "tests/test_f.py",
    ]
    # explicit paths may name single files; missing entries are skipped
    index = RepoIndex(tmp_path, paths=["src/a.py", "docs", "src/__pycache__/b.py"])
    assert [m.rel for m in index.modules()] == ["src/a.py"]


def test_unparseable_module_is_reported_by_every_file_rule(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "broken.py").write_text("def f(:\n", encoding="utf-8")
    found = run_check(RepoIndex(tmp_path))
    file_rules = [r.id for r in all_rules() if r.scope == "file"]
    assert sorted(f.rule for f in found) == file_rules
    assert {(f.path, f.line, f.col) for f in found} == {("src/broken.py", 1, 0)}
    assert all(f.message.startswith("file does not parse: ") for f in found)
