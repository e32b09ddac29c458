"""Unit tests for the dataflow layer behind RP007, RP008 and RP011.

Covers the statement-level CFG (branching, loops, abrupt exits,
try/finally routing), the repo-wide call graph with import resolution,
and the exception-propagation fixpoint with try/except masking.
"""

import ast
import textwrap

import pytest

from repro.devtools import RepoIndex
from repro.devtools.analysis import (
    CFG,
    build_call_graph,
    build_cfg,
    class_hierarchy,
    exception_ancestors,
    exception_propagation,
    stmt_bindings,
)


def _func(source):
    tree = ast.parse(textwrap.dedent(source))
    return next(
        n for n in tree.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    )


def _cfg(source):
    return build_cfg(_func(source))


def _node_of(cfg, needle):
    """The CFG node whose statement's source line contains ``needle``."""
    for nid, stmt in enumerate(cfg.stmts):
        if stmt is not None and needle in ast.unparse(stmt).splitlines()[0]:
            return nid
    raise AssertionError(f"no CFG node matches {needle!r}")


def _reaches(cfg, start, goal):
    seen, stack = set(), [start]
    while stack:
        nid = stack.pop()
        if nid == goal:
            return True
        if nid in seen:
            continue
        seen.add(nid)
        stack.extend(cfg.succ[nid])
    return False


# --------------------------------------------------------------------- #
# CFG construction
# --------------------------------------------------------------------- #


def test_cfg_straight_line():
    cfg = _cfg("""
        def f(x):
            a = x + 1
            b = a * 2
            return b
    """)
    a, b, ret = _node_of(cfg, "a ="), _node_of(cfg, "b ="), _node_of(cfg, "return")
    assert cfg.succ[CFG.ENTRY] == {a}
    assert cfg.succ[a] == {b}
    assert cfg.succ[b] == {ret}
    assert cfg.succ[ret] == {CFG.EXIT}


def test_cfg_if_branches_merge():
    cfg = _cfg("""
        def f(x):
            if x:
                a = 1
            else:
                a = 2
            return a
    """)
    test = _node_of(cfg, "if x")
    then, other = _node_of(cfg, "a = 1"), _node_of(cfg, "a = 2")
    ret = _node_of(cfg, "return")
    assert cfg.succ[test] == {then, other}
    assert cfg.succ[then] == cfg.succ[other] == {ret}


def test_cfg_if_without_else_falls_through():
    cfg = _cfg("""
        def f(x):
            if x:
                return 1
            return 2
    """)
    test = _node_of(cfg, "if x")
    early, late = _node_of(cfg, "return 1"), _node_of(cfg, "return 2")
    assert cfg.succ[test] == {early, late}
    assert cfg.succ[early] == {CFG.EXIT}


def test_cfg_raise_goes_to_raise_exit_not_exit():
    cfg = _cfg("""
        def f(x):
            if x:
                raise ValueError(x)
            return x
    """)
    rse = _node_of(cfg, "raise")
    assert cfg.succ[rse] == {CFG.RAISE_EXIT}
    assert not _reaches(cfg, rse, CFG.EXIT)


def test_cfg_while_true_exits_only_via_break():
    cfg = _cfg("""
        def f(conn):
            while True:
                msg = conn.recv()
                if msg is None:
                    break
                conn.send(msg)
            conn.close()
    """)
    head = _node_of(cfg, "while True")
    brk = _node_of(cfg, "break")
    close = _node_of(cfg, "conn.close")
    # the loop head never falls through; only break reaches the close
    assert close not in cfg.succ[head]
    assert cfg.succ[brk] == {close}


def test_cfg_loop_test_can_fail_on_entry():
    cfg = _cfg("""
        def f(items):
            for x in items:
                use(x)
            return 0
    """)
    head, ret = _node_of(cfg, "for x"), _node_of(cfg, "return")
    assert ret in cfg.succ[head]
    body = _node_of(cfg, "use(x)")
    assert head in cfg.succ[body]  # back edge


def test_cfg_return_routes_through_finally():
    cfg = _cfg("""
        def f(conn):
            try:
                return conn.recv()
            finally:
                conn.close()
    """)
    ret = _node_of(cfg, "return")
    close = _node_of(cfg, "conn.close")
    # the return does NOT go straight to EXIT: the finally runs first
    assert cfg.succ[ret] == {close}
    assert CFG.EXIT in cfg.succ[close]


def test_cfg_nodes_for_finds_the_statement():
    cfg = _cfg("""
        def f(x):
            y = x
            return y
    """)
    y = _node_of(cfg, "y = x")
    assert cfg.nodes_for(cfg.stmts[y]) == [y]
    assert _node_of(cfg, "return") in cfg.succ[y]


def test_cfg_continue_returns_to_the_loop_head():
    cfg = _cfg("""
        def f(items):
            for x in items:
                if x:
                    continue
                use(x)
            return 0
    """)
    head, cont = _node_of(cfg, "for x"), _node_of(cfg, "continue")
    assert cfg.succ[cont] == {head}
    assert _node_of(cfg, "use(x)") not in cfg.succ[cont]


def test_cfg_loop_else_runs_on_exhaustion_and_break_skips_it():
    cfg = _cfg("""
        def f(items):
            for x in items:
                if x:
                    break
            else:
                missing()
            return 0
    """)
    head, brk = _node_of(cfg, "for x"), _node_of(cfg, "break")
    other, ret = _node_of(cfg, "missing()"), _node_of(cfg, "return")
    assert other in cfg.succ[head]
    assert ret not in cfg.succ[head]  # exhaustion goes through else
    assert cfg.succ[brk] == {ret}


def test_cfg_handlers_hang_off_the_try_statement_only():
    cfg = _cfg("""
        def f(conn):
            try:
                first = conn.recv()
                second = conn.recv()
            except EOFError:
                recover()
            return 0
    """)
    try_, recover = _node_of(cfg, "try:"), _node_of(cfg, "recover()")
    first, second = _node_of(cfg, "first ="), _node_of(cfg, "second =")
    assert cfg.succ[try_] == {first, recover}
    assert recover not in cfg.succ[first] | cfg.succ[second]
    ret = _node_of(cfg, "return")
    assert cfg.succ[second] == cfg.succ[recover] == {ret}


def test_cfg_match_may_take_no_case():
    cfg = _cfg("""
        def f(cmd):
            match cmd:
                case "stop":
                    halt()
                case _:
                    go()
            return 0
    """)
    match, ret = _node_of(cfg, "match cmd"), _node_of(cfg, "return")
    halt, go = _node_of(cfg, "halt()"), _node_of(cfg, "go()")
    assert cfg.succ[match] == {halt, go, ret}
    assert cfg.succ[halt] == cfg.succ[go] == {ret}


def test_cfg_nested_function_is_one_straight_line_node():
    cfg = _cfg("""
        def f(x):
            def inner():
                return x
            return inner
    """)
    inner = _node_of(cfg, "def inner")
    assert cfg.succ[inner] == {_node_of(cfg, "return inner")}
    # the nested body belongs to the nested function's own CFG
    inner_return = cfg.stmts[inner].body[0]
    assert cfg.nodes_for(inner_return) == []


def test_stmt_bindings_covers_each_binding_form():
    body = ast.parse(textwrap.dedent("""
        a, (b, *c) = value
        d += 1
        e: int = 0
        for f, g in pairs: pass
        with open(p) as h, lock: pass
        import os.path, numpy as np
        from x import y as z
        def fn(): pass
        class K: pass
        print(unbound)
    """)).body
    assert [sorted(stmt_bindings(s)) for s in body] == [
        ["a", "b", "c"], ["d"], ["e"], ["f", "g"], ["h"],
        ["np", "os"], ["z"], ["fn"], ["K"], [],
    ]


# --------------------------------------------------------------------- #
# call graph + exception propagation (on a miniature indexed tree)
# --------------------------------------------------------------------- #


@pytest.fixture()
def mini_index(tmp_path):
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
    return RepoIndex(tmp_path, paths=["src"])


def test_call_graph_resolution(mini_index):
    graph = build_call_graph(mini_index)
    calls = graph.calls
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
    calls = build_call_graph(RepoIndex(tmp_path, paths=["src"])).calls
    a, g = "src/pkg/sub/a.py", "src/pkg/sub/b.py::g"
    assert calls[f"{a}::via_module_alias"] == {g}
    assert calls[f"{a}::via_relative_module"] == {g}
    assert calls[f"{a}::via_relative_symbol"] == {g}
    assert calls[f"{a}::via_parent_package"] == {"src/pkg/__init__.py::top"}
    # an untyped receiver resolves to nothing rather than to a guess
    assert calls[f"{a}::through_a_variable"] == set()


def test_class_hierarchy_and_ancestors(mini_index):
    hierarchy = class_hierarchy(mini_index)
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


def test_exception_propagation(mini_index):
    raised = exception_propagation(mini_index)
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
