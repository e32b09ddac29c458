"""RP001 — bit-width safety in packed-state modules.

The fast engines pack node sets into fixed-width integer lanes: the
numpy frontier engine lives in ``uint64`` (the 2n<=64 / 3n<=64 layout
assumptions), and the pure-python kernels manipulate masks whose width
is the DAG's node count.  Three mistakes silently corrupt states
instead of failing:

* shifting a *value* by a literal >= 64 (drops bits on any uint64 lane;
  shifting the constant ``1`` stays legal — ``(1 << 64) - 1`` is the
  canonical python-int mask idiom);
* a literal mask wider than 64 bits used in a bitwise operation;
* numpy arrays created without a pinned ``dtype`` (platform-dependent
  default integer width) or pinned to a lane narrower than 64 bits —
  mask arrays must be ``uint64``, index/cost arrays ``int64``/``bool``.

The rule runs only over the modules that do the packing
(:data:`PACKED_MODULES`); everything else may shift python ints freely.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from .index import ModuleInfo, RepoIndex
from .report import Finding
from .rules import dotted_name, finding, rule

__all__ = ["PACKED_MODULES"]

#: the modules whose correctness rests on fixed-width packing
PACKED_MODULES = frozenset(
    {
        "src/repro/core/bitstate.py",
        "src/repro/solvers/kernel.py",
        "src/repro/solvers/batch_kernel.py",
        "src/repro/solvers/multilevel.py",
        "src/repro/multilevel/bitgame.py",
    }
)

#: numpy constructors whose default dtype is platform-dependent
_NP_CONSTRUCTORS = frozenset(
    {"array", "zeros", "ones", "empty", "full", "arange"}
)

#: integer dtypes narrower than the 64-bit lane the layouts assume
_NARROW_DTYPES = frozenset(
    {"int8", "int16", "int32", "uint8", "uint16", "uint32"}
)

_BITWISE_OPS = (ast.BitAnd, ast.BitOr, ast.BitXor, ast.LShift, ast.RShift)

_MAX_LANE_BITS = 64


def _numpy_aliases(tree: ast.Module) -> Set[str]:
    """Names the module binds to the numpy package (``np``, ``numpy``)."""
    aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name == "numpy":
                    aliases.add(item.asname or "numpy")
    return aliases


def _is_packed_fixture(module: ModuleInfo) -> bool:
    """Fixture escape hatch: a module can declare itself packed."""
    return "devtools: packed-state" in module.source


@rule(
    "RP001",
    "bit-width-safety",
    scope="file",
    description=(
        "packed-state modules must not shift values past the 64-bit lane, "
        "use masks wider than 64 bits, or build numpy arrays without a "
        "pinned 64-bit (or bool) dtype"
    ),
)
def check_bitwidth(module: ModuleInfo, index: RepoIndex) -> Iterator[Finding]:
    if module.rel not in PACKED_MODULES and not _is_packed_fixture(module):
        return
    tree = module.tree
    assert tree is not None  # syntax errors are handled by the framework
    np_aliases = _numpy_aliases(tree)

    for node in ast.walk(tree):
        # value shifted past the lane: `x << 64`, `x >> 70`
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.LShift, ast.RShift)
        ):
            amount = node.right
            if (
                isinstance(amount, ast.Constant)
                and isinstance(amount.value, int)
                and amount.value >= _MAX_LANE_BITS
                and not (
                    isinstance(node.left, ast.Constant)
                    and isinstance(node.left.value, int)
                )
            ):
                yield finding(
                    "RP001", module, node,
                    f"value shifted by literal {amount.value} >= "
                    f"{_MAX_LANE_BITS}: exceeds the uint64 lane the packed "
                    f"layouts assume (guard by the layout width instead)",
                )

        # literal mask wider than the lane in a bitwise operation
        if isinstance(node, ast.BinOp) and isinstance(node.op, _BITWISE_OPS):
            for side in (node.left, node.right):
                if (
                    isinstance(side, ast.Constant)
                    and isinstance(side.value, int)
                    and side.value.bit_length() > _MAX_LANE_BITS
                ):
                    yield finding(
                        "RP001", module, side,
                        f"bitwise mask literal needs "
                        f"{side.value.bit_length()} bits, layout lanes "
                        f"hold {_MAX_LANE_BITS}",
                    )

        # numpy arrays without a pinned dtype, or pinned too narrow
        if isinstance(node, ast.Call) and np_aliases:
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in np_aliases
                and func.attr in _NP_CONSTRUCTORS
            ):
                dtype = next(
                    (kw.value for kw in node.keywords if kw.arg == "dtype"),
                    None,
                )
                if dtype is None:
                    yield finding(
                        "RP001", module, node,
                        f"{func.value.id}.{func.attr}(...) without an "
                        f"explicit dtype: the default integer width is "
                        f"platform-dependent; pin uint64 (masks), int64 "
                        f"(costs/indices) or bool",
                    )
                else:
                    name = dotted_name(dtype)
                    leaf = name.rsplit(".", 1)[-1] if name else ""
                    literal = (
                        dtype.value
                        if isinstance(dtype, ast.Constant)
                        and isinstance(dtype.value, str)
                        else ""
                    )
                    if leaf in _NARROW_DTYPES or literal in _NARROW_DTYPES:
                        yield finding(
                            "RP001", module, dtype,
                            f"dtype {leaf or literal} is narrower than the "
                            f"64-bit lane the packed layouts assume",
                        )

        # np.uint32(...)-style scalar casts narrow a mask the same way
        if isinstance(node, ast.Call) and np_aliases:
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in np_aliases
                and func.attr in _NARROW_DTYPES
            ):
                yield finding(
                    "RP001", module, node,
                    f"{func.value.id}.{func.attr}(...) narrows to "
                    f"{func.attr}; packed masks must stay on 64-bit lanes",
                )
