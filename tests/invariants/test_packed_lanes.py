"""Packed-state modules stay on 64-bit lanes (RP001).

The fast engines pack node sets into fixed-width integer lanes: the
numpy frontier engine lives in ``uint64``, and the pure-python kernels
manipulate masks whose width is the DAG's node count.  Three mistakes
silently corrupt states instead of failing:

* shifting a *value* by a literal >= 64 (drops bits on any uint64 lane;
  shifting the constant ``1`` stays legal, since ``(1 << 64) - 1`` is
  the canonical python-int mask idiom);
* a literal mask wider than 64 bits used in a bitwise operation;
* numpy arrays created without a pinned ``dtype`` (platform-dependent
  default integer width) or pinned to a lane narrower than 64 bits,
  and scalar casts to such a lane.

This AST scan of the five packing modules caught five unpinned index
arrays in ``solvers/batch_kernel.py`` on its first run.
"""

import ast
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "rp001_packed.py"

#: the modules whose correctness rests on fixed-width packing
PACKED_MODULES = (
    "src/repro/core/bitstate.py",
    "src/repro/solvers/kernel.py",
    "src/repro/solvers/batch_kernel.py",
    "src/repro/solvers/multilevel.py",
    "src/repro/multilevel/bitgame.py",
)

#: numpy constructors whose default dtype is platform-dependent
_NP_CONSTRUCTORS = frozenset({"array", "zeros", "ones", "empty", "full", "arange"})

#: integer dtypes narrower than the 64-bit lane the layouts assume
_NARROW_DTYPES = frozenset({"int8", "int16", "int32", "uint8", "uint16", "uint32"})

_BITWISE_OPS = (ast.BitAnd, ast.BitOr, ast.BitXor, ast.LShift, ast.RShift)

_LANE_BITS = 64


def _int_literal(node):
    return isinstance(node, ast.Constant) and type(node.value) is int


def _leaf(node):
    """``np.int32`` -> ``"int32"``, ``"int32"`` -> ``"int32"``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return ""


def lane_violations(source):
    """``(line, message)`` for each lane violation in one module."""
    tree = ast.parse(source)
    np_aliases = {
        item.asname or "numpy"
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for item in node.names
        if item.name == "numpy"
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.LShift, ast.RShift)):
            if (
                _int_literal(node.right)
                and node.right.value >= _LANE_BITS
                and not _int_literal(node.left)
            ):
                found.append((node.lineno, f"value shifted by literal {node.right.value}"))
        if isinstance(node, ast.BinOp) and isinstance(node.op, _BITWISE_OPS):
            for side in (node.left, node.right):
                if _int_literal(side) and side.value.bit_length() > _LANE_BITS:
                    found.append(
                        (side.lineno, f"mask literal of {side.value.bit_length()} bits")
                    )
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in np_aliases
        ):
            call = f"{node.func.value.id}.{node.func.attr}"
            if node.func.attr in _NARROW_DTYPES:
                found.append((node.lineno, f"{call}(...) narrows the lane"))
            elif node.func.attr in _NP_CONSTRUCTORS:
                dtype = next((kw.value for kw in node.keywords if kw.arg == "dtype"), None)
                if dtype is None:
                    found.append((node.lineno, f"{call}(...) without an explicit dtype"))
                elif _leaf(dtype) in _NARROW_DTYPES:
                    found.append((node.lineno, f"dtype {_leaf(dtype)} is narrower than 64 bits"))
    return sorted(found)


@pytest.mark.parametrize("rel", PACKED_MODULES)
def test_packed_module_stays_on_64_bit_lanes(rel):
    assert lane_violations((REPO / rel).read_text(encoding="utf-8")) == []


def test_fixture_shows_each_violation_once():
    found = lane_violations(FIXTURE.read_text(encoding="utf-8"))
    # the canonical (1 << 64) - 1 mask idiom on line 5 and the pinned
    # uint64 array on line 6 are legal
    assert found == [
        (10, "value shifted by literal 64"),
        (11, "mask literal of 65 bits"),
        (12, "np.zeros(...) without an explicit dtype"),
        (13, "dtype int32 is narrower than 64 bits"),
        (14, "np.uint32(...) narrows the lane"),
    ]


@pytest.mark.parametrize("source,expected", [
    ("def f(x):\n    return x << 63, 1 << 64\n", []),
    ("def f(x):\n    return x >> 70\n", [(2, "value shifted by literal 70")]),
    ("""
        import numpy as np
        A = np.zeros(3, dtype="uint16")
        B = np.zeros(3, dtype=bool)
        C = np.arange(4, dtype=np.int64)
    """, [(3, "dtype uint16 is narrower than 64 bits")]),
    ("import numpy\nLANES = numpy.empty(2)\n",
     [(2, "numpy.empty(...) without an explicit dtype")]),
    ("def f(x):\n    return x << 64\n", [(2, "value shifted by literal 64")]),
    ("def f(x):\n    return x & 0xFFFFFFFFFFFFFFFF, x >> 63\n", []),
    ("def f(x):\n    return 0x1FFFFFFFFFFFFFFFF ^ x\n", [(2, "mask literal of 65 bits")]),
    ("def f(x, n):\n    return x << n, x >> n\n", []),
    ("""
        import numpy as np
        A = np.ones(2)
        B = np.empty(2)
        C = np.full(2, 0)
        D = np.arange(4)
        E = np.array([1])
    """, [
        (3, "np.ones(...) without an explicit dtype"),
        (4, "np.empty(...) without an explicit dtype"),
        (5, "np.full(...) without an explicit dtype"),
        (6, "np.arange(...) without an explicit dtype"),
        (7, "np.array(...) without an explicit dtype"),
    ]),
    ("""
        import numpy as np
        A = np.zeros(3, dtype=np.uint8)
        B = np.full(3, 0, dtype=np.int16)
    """, [(3, "dtype uint8 is narrower than 64 bits"),
          (4, "dtype int16 is narrower than 64 bits")]),
    ("""
        import numpy as np
        a, b, c = np.int8(1), np.uint16(2), np.int32(3)
        ok = np.uint64(4), np.int64(5)
    """, [(3, "np.int32(...) narrows the lane"), (3, "np.int8(...) narrows the lane"),
          (3, "np.uint16(...) narrows the lane")]),
    ("import numpy as xp\nLANES = xp.zeros(4)\n",
     [(2, "xp.zeros(...) without an explicit dtype")]),
    ("import torch\nT = torch.zeros(4)\nL = [0] * 4\n", []),
], ids=["shift-inside-the-lane-and-the-mask-idiom", "right-shift-past-the-lane",
        "narrow-dtype-as-string", "plain-numpy-import", "left-shift-past-the-lane",
        "full-64-bit-mask-and-last-in-lane-shift", "wide-mask-on-the-left",
        "shift-by-a-variable-is-not-judged", "every-platform-default-constructor",
        "narrow-dtype-as-attribute", "scalar-casts-to-each-narrow-lane",
        "numpy-alias-is-followed", "other-libraries-are-out-of-scope"])
def test_lane_violations_on_snippet(source, expected):
    assert lane_violations(textwrap.dedent(source)) == expected
