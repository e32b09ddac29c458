"""Known-violation fixture for RP011 (dead-dispatch-branch).

The ``devtools: spec-grammar`` marker opts this module into the rule's
scope.  Both duplicates follow a first occurrence that returns, so
both are dead and each finding is anchored at the duplicate ``if``
(pinned in tests/devtools/test_rules.py).
"""


def parse_kind(kind):
    if kind == "chain":
        return ("chain", 1)
    if kind == "grid":
        return ("grid", 2)
    if kind == "chain":  # RP011: dead duplicate of the line-11 branch
        return ("chain", 1)
    if kind.startswith("tree:"):
        return ("tree", kind[5:])
    if kind.startswith("tree:"):  # RP011: dead duplicate, startswith form
        return ("tree", kind[5:])
    raise ValueError(kind)
