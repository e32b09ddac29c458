"""The public solver exception contract, checked statically (RP008).

``docs/api.md`` states that a solver call fails in exactly two
vocabularies: the :class:`~repro.core.errors.PebblingError` hierarchy
for domain failures and ``ValueError`` for malformed inputs.  The
service reports those as task errors; anything else, an
``AssertionError`` escaping a model dispatch or a ``KeyError`` from a
missing table entry, is a bug.

:func:`contract_escapes` reads ``__all__`` of the solvers package,
resolves each export to the module-level function defining it under
``src/repro/solvers/``, and asks the exception-propagation fixpoint
(:mod:`.callgraph`) which types can escape it.  Types outside the
contract are reported at their originating raise site, so the fix lands
where the raise is.  The check stays static because a runtime test
cannot reach an explicit raise on a path that no generated input takes.
Its first run caught a ``KeyError`` escaping ``solvers/bounds.py``.
"""

import ast
import textwrap
from pathlib import Path

import pytest

from .callgraph import (
    _header_exprs,
    build_call_graph,
    class_hierarchy,
    exception_ancestors,
    exception_propagation,
    parse_tree,
)

REPO = Path(__file__).resolve().parents[2]
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "rp008_contract"

#: the package whose ``__all__`` defines the public solver entry points
SOLVERS_INIT = "src/repro/solvers/__init__.py"
SOLVERS_DIR = "src/repro/solvers/"

#: an escaping exception is legal iff it is (a subclass of) one of these
ALLOWED_EXCEPTION_BASES = {"PebblingError", "ValueError"}


def _exported_names(tree):
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def contract_escapes(modules):
    """``(path, line, exception)`` of each raise outside the contract
    that can escape a public solver entry point."""
    exported = _exported_names(modules[SOLVERS_INIT])
    graph = build_call_graph(modules)
    hierarchy = class_hierarchy(modules)
    raised = exception_propagation(modules, graph)
    return {
        (site.path, site.line, exc)
        for qualname, info in graph.functions.items()
        if info.rel.startswith(SOLVERS_DIR) and info.qual in exported
        for exc, site in raised[qualname].items()
        # a name the tree does not define (``raise make_error()``) is
        # unjudgeable and skipped
        if exc in hierarchy
        and not ({exc} | exception_ancestors(exc, hierarchy)) & ALLOWED_EXCEPTION_BASES
    }


def test_public_solvers_raise_only_the_documented_exceptions():
    assert contract_escapes(parse_tree(REPO)) == set()


def test_fixture_escapes_are_reported_at_their_raise_sites():
    # ValueError and the PebblingError subclass are inside the contract,
    # and the LookupError-masked _probe() path is not reported
    assert contract_escapes(parse_tree(FIXTURE)) == {
        ("src/repro/solvers/engine.py", 14, "KeyError"),
        ("src/repro/solvers/engine.py", 29, "RuntimeError"),
    }


def _solvers_tree(root, engine_source):
    """A miniature repo whose solvers package exports ``solve`` from
    ``engine.py``, next to a ``core/errors.py`` with the domain errors."""
    src = root / "src" / "repro"
    for package in ("", "core", "solvers"):
        (src / package).mkdir(parents=True, exist_ok=True)
        (src / package / "__init__.py").write_text("", encoding="utf-8")
    (src / "core" / "errors.py").write_text(
        "class PebblingError(Exception):\n    pass\n\n\n"
        "class BudgetExceededError(PebblingError):\n    pass\n",
        encoding="utf-8",
    )
    (src / "solvers" / "__init__.py").write_text(
        'from .engine import solve\n\n__all__ = ["solve"]\n', encoding="utf-8"
    )
    (src / "solvers" / "engine.py").write_text(
        textwrap.dedent(engine_source).lstrip(), encoding="utf-8"
    )
    return parse_tree(root)


@pytest.mark.parametrize("engine_source,expected", [
    ("""
        from repro.core.errors import BudgetExceededError

        def solve(x):
            raise BudgetExceededError(x)
    """, set()),
    ("""
        class SpecError(ValueError):
            pass

        def solve(x):
            raise SpecError(x)
    """, set()),
    ("""
        def solve(x):
            if x is None:
                raise AssertionError("unreachable model")
            return x
    """, {(3, "AssertionError")}),
    ("""
        def _lookup(table, key):
            if key not in table:
                raise KeyError(key)
            return table[key]

        def solve(x):
            return _lookup({}, x)
    """, {(3, "KeyError")}),
    ("""
        def solve(x):
            return x

        def internal(x):
            raise KeyError(x)
    """, set()),
    ("""
        def _lookup(key):
            raise KeyError(key)

        def solve(x):
            try:
                return _lookup(x)
            except Exception:
                return None
    """, set()),
    ("""
        def solve(x):
            try:
                raise RuntimeError(x)
            except:
                return None
    """, set()),
    ("""
        def solve(x):
            try:
                if x:
                    raise KeyError(x)
                raise IndexError(x)
            except (KeyError, IndexError):
                return None
    """, set()),
    ("""
        def solve(x):
            try:
                raise LookupError(x)
            except KeyError:
                return None
    """, {(3, "LookupError")}),
    ("""
        def solve(x):
            try:
                return {}[x]
            except KeyError:
                raise RuntimeError(x)
    """, {(5, "RuntimeError")}),
    ("""
        def _lookup(key):
            raise KeyError(key)

        def solve(x):
            try:
                return _lookup(x)
            except KeyError:
                raise
    """, {(2, "KeyError")}),
    ("""
        def make_error(x):
            return RuntimeError(x)

        def solve(x):
            raise make_error(x)
    """, set()),
    ("""
        def solve(x):
            def check():
                raise TypeError(x)
            return check
    """, {(3, "TypeError")}),
], ids=["pebbling-error-subclass-from-another-module", "value-error-subclass",
        "assertion-error-escapes", "helper-escape-reported-at-the-helper",
        "unexported-function-is-not-checked", "except-exception-masks-subclasses",
        "bare-except-masks-everything", "tuple-handler-masks-each-member",
        "narrower-handler-does-not-mask-a-broader-raise",
        "raise-in-a-handler-escapes-its-own-try", "bare-reraise-does-not-mask",
        "raise-of-a-factory-call-is-unjudged",
        "nested-function-raises-count-for-the-encloser"])
def test_contract_escapes_on_snippet(tmp_path, engine_source, expected):
    engine = "src/repro/solvers/engine.py"
    found = contract_escapes(_solvers_tree(tmp_path, engine_source))
    assert found == {(engine, line, exc) for line, exc in expected}


# --------------------------------------------------------------------- #
# call graph + exception propagation (on a miniature tree)
# --------------------------------------------------------------------- #


@pytest.fixture()
def mini_tree(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    (pkg / "util.py").write_text(textwrap.dedent("""
        class AppError(Exception):
            pass


        class DeepError(AppError):
            pass


        def helper(kind):
            if kind == "deep":
                raise DeepError(kind)
            raise KeyError(kind)


        class Gadget:
            def __init__(self, n):
                if n < 0:
                    raise OverflowError(n)
                self.n = n

            def run(self):
                return self.spin()

            def spin(self):
                raise TimeoutError("spin")
    """), encoding="utf-8")
    (pkg / "main.py").write_text(textwrap.dedent("""
        from pkg import util
        from pkg.util import Gadget, helper


        def entry(kind):
            return helper(kind)


        def masked(kind):
            try:
                return helper(kind)
            except LookupError:
                return None


        def reraising(kind):
            try:
                return helper(kind)
            except KeyError:
                raise


        def via_alias(kind):
            return util.helper(kind)


        def builds():
            return Gadget(3)
    """), encoding="utf-8")
    return parse_tree(tmp_path)


def test_call_graph_resolution(mini_tree):
    calls = build_call_graph(mini_tree).calls
    main, util = "src/pkg/main.py", "src/pkg/util.py"
    assert calls[f"{main}::entry"] == {f"{util}::helper"}
    # module-alias attribute calls resolve too
    assert calls[f"{main}::via_alias"] == {f"{util}::helper"}
    # class instantiation resolves to __init__
    assert calls[f"{main}::builds"] == {f"{util}::Gadget.__init__"}
    # self.method calls resolve within the class
    assert calls[f"{util}::Gadget.run"] == {f"{util}::Gadget.spin"}


def test_call_graph_resolves_relative_and_aliased_imports(tmp_path):
    sub = tmp_path / "src" / "pkg" / "sub"
    sub.mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "__init__.py").write_text(
        "def top():\n    return 1\n", encoding="utf-8")
    (sub / "__init__.py").write_text("", encoding="utf-8")
    (sub / "b.py").write_text("def g():\n    return 2\n", encoding="utf-8")
    (sub / "a.py").write_text(textwrap.dedent("""
        import pkg.sub.b as bee
        from . import b
        from .b import g as gee
        from .. import top


        def via_module_alias():
            return bee.g()


        def via_relative_module():
            return b.g()


        def via_relative_symbol():
            return gee()


        def via_parent_package():
            return top()


        def through_a_variable(x):
            return x.g()
    """), encoding="utf-8")
    calls = build_call_graph(parse_tree(tmp_path)).calls
    a, g = "src/pkg/sub/a.py", "src/pkg/sub/b.py::g"
    assert calls[f"{a}::via_module_alias"] == {g}
    assert calls[f"{a}::via_relative_module"] == {g}
    assert calls[f"{a}::via_relative_symbol"] == {g}
    assert calls[f"{a}::via_parent_package"] == {"src/pkg/__init__.py::top"}
    # an untyped receiver resolves to nothing rather than to a guess
    assert calls[f"{a}::through_a_variable"] == set()


def test_class_hierarchy_and_ancestors(mini_tree):
    hierarchy = class_hierarchy(mini_tree)
    assert hierarchy["DeepError"] == ("AppError",)
    assert exception_ancestors("DeepError", hierarchy) == {
        "AppError", "Exception", "BaseException",
    }
    # builtins come from the baked-in table
    assert "LookupError" in exception_ancestors("KeyError", hierarchy)
    # unknown names default to plain Exception
    assert exception_ancestors("Mystery", hierarchy) == {
        "Exception", "BaseException",
    }


def test_exception_propagation(mini_tree):
    raised = exception_propagation(mini_tree)
    main, util = "src/pkg/main.py", "src/pkg/util.py"
    # direct seeding at the raise sites
    assert set(raised[f"{util}::helper"]) == {"DeepError", "KeyError"}
    # transitive propagation to the caller, sites kept at the origin
    entry = raised[f"{main}::entry"]
    assert set(entry) == {"DeepError", "KeyError"}
    assert entry["KeyError"].path == util
    # except LookupError masks KeyError but not the unrelated DeepError
    assert set(raised[f"{main}::masked"]) == {"DeepError"}
    # a bare-raise handler does not mask (and seeds nothing new)
    assert set(raised[f"{main}::reraising"]) == {"DeepError", "KeyError"}
    # methods raise too
    assert set(raised[f"{util}::Gadget.run"]) == {"TimeoutError"}
    assert set(raised[f"{main}::builds"]) == {"OverflowError"}


def test_header_expressions_and_match_cases_are_followed(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text(textwrap.dedent("""
        def bad():
            raise KeyError("x")


        def in_header(items):
            for item in bad():
                pass


        def in_case(cmd):
            match cmd:
                case "go":
                    bad()
    """), encoding="utf-8")
    raised = exception_propagation(parse_tree(tmp_path))
    assert set(raised["src/m.py::in_header"]) == {"KeyError"}
    assert set(raised["src/m.py::in_case"]) == {"KeyError"}


@pytest.mark.parametrize("source,expected", [
    ("if f(x):\n    pass\n", ["f(x)"]),
    ("while g():\n    pass\n", ["g()"]),
    ("for i in h(3):\n    pass\n", ["h(3)"]),
    ("with open(p) as a, lock:\n    pass\n", ["open(p)", "lock"]),
    ("match cmd():\n    case 1:\n        pass\n", ["cmd()"]),
    ("try:\n    f()\nexcept KeyError:\n    pass\n", []),
], ids=["if-test", "while-test", "for-iterable", "with-each-context", "match-subject",
        "try-has-no-header"])
def test_header_exprs(source, expected):
    stmt = ast.parse(source).body[0]
    assert [ast.unparse(expr) for expr in _header_exprs(stmt)] == expected
