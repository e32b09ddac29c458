"""Known-violation fixture for RP012 (float-costs-in-kernel).

The ``devtools: packed-state`` marker opts this module into the rule's
scope.  Every offending literal is integral, so every message names
the int literal that replaces it.
"""


def relax(g, moves, bound):
    best = g + 1.0  # RP012: float mixes into cost arithmetic
    if best > 100.0:  # RP012: float compares against a cost name
        return bound
    incumbent = 0.0  # RP012: float assigned to a cost name
    for step in moves:
        incumbent += 2.0  # RP012: float augments a cost name
    threshold = bound - 1.0  # RP012: float mixes into a bound expression
    return incumbent, threshold


def poll_interval(seconds):
    return min(seconds, 0.005)  # timing float: never flagged
