"""Tier-1 tests stay deterministic (RP006).

The differential and golden suites are the repo's safety net; a flaky
test erodes exactly the trust they exist to provide.  This AST scan of
every ``tests/**/test_*.py`` flags the two classic flakiness sources:

* **unseeded randomness**: module-level ``random.random()`` /
  ``random.randint(...)`` etc. (constructing ``random.Random(seed)`` is
  the sanctioned idiom) and ``np.random.x(...)`` through the legacy
  global generator (``np.random.default_rng(seed)`` /
  ``RandomState(seed)`` / ``SeedSequence`` are fine);
* **wall-clock reads**: any ``time.time()`` / ``datetime.now()`` /
  ``utcnow()`` call (timing belongs in ``perfbench/``), and
  ``perf_counter`` / ``monotonic`` / ``process_time`` *inside an
  assertion*, which turns load on the runner into a test verdict.
"""

import ast
import textwrap
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "fixtures"

#: random-module attributes that are fine (the seeded constructor, state
#: helpers); ``SystemRandom`` reads ``os.urandom`` and cannot be seeded
_RANDOM_OK = frozenset({"Random", "seed", "getstate", "setstate"})

#: np.random attributes that are fine (explicitly seeded generators)
_NP_RANDOM_OK = frozenset({"default_rng", "RandomState", "SeedSequence", "Generator"})

#: calls that read the wall clock anywhere
_WALL_CLOCK = frozenset({"time.time", "datetime.now", "datetime.utcnow"})

#: clock reads that are fine in general but not inside an assert
_TIMERS = frozenset({"perf_counter", "monotonic", "process_time"})


def _dotted(node):
    """``a.b.c`` as a string, or ``""`` for non-name expressions."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    parts.append(node.id)
    return ".".join(reversed(parts))


def flaky_calls(source):
    """``(line, call)`` for each nondeterministic call in one test module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            module, _, attr = name.rpartition(".")
            if (
                name in _WALL_CLOCK
                or name.endswith(".datetime.now")
                or (module == "random" and attr not in _RANDOM_OK)
                or (module in ("np.random", "numpy.random") and attr not in _NP_RANDOM_OK)
            ):
                found.append((node.lineno, name))
        elif isinstance(node, ast.Assert):
            for sub in ast.walk(node.test):
                if isinstance(sub, ast.Call) and _dotted(sub.func).rpartition(".")[2] in _TIMERS:
                    found.append((sub.lineno, f"assert on {_dotted(sub.func)}"))
    return sorted(found)


def scanned_modules(tests, fixtures):
    """Every ``test_*.py`` under ``tests``, the ``fixtures`` tree excluded."""
    return [
        path for path in sorted(tests.rglob("test_*.py")) if fixtures not in path.parents
    ]


def test_tier1_tests_are_deterministic():
    found = {
        path.relative_to(TESTS).as_posix(): calls
        for path in scanned_modules(TESTS, FIXTURES)
        if (calls := flaky_calls(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_scan_reads_test_modules_only_and_skips_the_fixtures(tmp_path):
    flaky = "import random\n\n\ndef test_draw():\n    return random.random()\n"
    for rel in ("test_a.py", "helpers.py", "conftest.py", "sub/test_b.py",
                "fixtures/test_c.py", "fixtures/deep/test_d.py"):
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(flaky, encoding="utf-8")
    scanned = scanned_modules(tmp_path, tmp_path / "fixtures")
    assert [p.relative_to(tmp_path).as_posix() for p in scanned] == [
        "sub/test_b.py", "test_a.py",
    ]
    # on the real tree: this module is read, the known-flaky fixture is not
    real = scanned_modules(TESTS, FIXTURES)
    assert Path(__file__).resolve() in real
    assert not any(FIXTURES in p.parents for p in real)


def test_fixture_shows_each_flaky_call():
    found = flaky_calls((FIXTURES / "rp006_flaky.py").read_text(encoding="utf-8"))
    # a perf_counter read outside the assert and the seeded generators
    # on lines 17-18 are legal
    assert found == [
        (11, "random.random"),
        (12, "np.random.rand"),
        (13, "time.time"),
        (14, "datetime.now"),
        (16, "assert on time.perf_counter"),
    ]


@pytest.mark.parametrize("source,expected", [
    ("""
        import random
        import numpy as np

        def test_seeded():
            assert random.Random(3).random() < 1
            assert np.random.default_rng(1).random() < 1
    """, []),
    ("""
        from datetime import datetime

        def test_stamp():
            return datetime.utcnow()
    """, [(5, "datetime.utcnow")]),
    ("""
        import time

        def test_fast():
            t = time.monotonic()
            assert time.monotonic() - t < 5
    """, [(6, "assert on time.monotonic")]),
    ("""
        import random

        def test_draws():
            return random.randint(0, 9), random.choice("ab"), random.shuffle([1])
    """, [(5, "random.choice"), (5, "random.randint"), (5, "random.shuffle")]),
    ("""
        import random

        def test_state():
            random.seed(0)
            return random.getstate()
    """, []),
    ("""
        import random

        def test_os_entropy():
            return random.SystemRandom()
    """, [(5, "random.SystemRandom")]),
    ("""
        import random

        def test_instance():
            rng = random.Random(5)
            return rng.random(), rng.randint(0, 3)
    """, []),
    ("""
        import numpy
        import numpy as np

        def test_legacy():
            np.random.seed(0)
            return numpy.random.randint(3), np.random.shuffle([1, 2])
    """, [(6, "np.random.seed"), (7, "np.random.shuffle"), (7, "numpy.random.randint")]),
    ("""
        import numpy as np

        def test_seeded_numpy():
            return np.random.RandomState(0), np.random.SeedSequence(1)
    """, []),
    ("""
        import datetime
        import time

        def test_clock():
            return datetime.datetime.now(), time.time()
    """, [(6, "datetime.datetime.now"), (6, "time.time")]),
    ("""
        import time

        def test_timed():
            start = time.perf_counter()
            elapsed = time.perf_counter() - start
            assert elapsed >= 0
    """, []),
    ("""
        import time
        from time import perf_counter

        def test_budget():
            assert time.process_time() < 60
            assert perf_counter() > 0
    """, [(6, "assert on time.process_time"), (7, "assert on perf_counter")]),
], ids=["seeded-generators", "utcnow-reads-the-wall-clock",
        "timer-read-inside-the-assert-only", "module-level-random-helpers",
        "seeding-and-state-helpers", "system-random-cannot-be-seeded",
        "methods-of-a-seeded-instance", "legacy-numpy-global-generator",
        "seeded-numpy-constructors", "wall-clock-reads-outside-asserts",
        "timer-read-outside-the-assert", "timers-in-asserts-by-any-import"])
def test_flaky_calls_on_snippet(source, expected):
    assert flaky_calls(textwrap.dedent(source)) == expected
