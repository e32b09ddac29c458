"""Run the runnable module docstrings as tests.

CI also runs ``pytest --doctest-modules`` over these modules in the
``docs`` job; this leg keeps the doctests green in the plain tier-1
suite too, so a drifting docstring fails fast everywhere.
"""

import doctest

import pytest

import repro
import repro.core.models
import repro.core.moves
import repro.experiments.registry
import repro.experiments.store
import repro.generators.specs

#: every module with a runnable ``>>>`` example; ``repro.service.client``
#: is left out because its one example is marked ``+SKIP`` (it needs a
#: running server)
DOCTESTED_MODULES = [
    repro,
    repro.core.models,
    repro.core.moves,
    repro.generators.specs,
    repro.experiments.registry,
    repro.experiments.store,
]


@pytest.mark.parametrize(
    "module", DOCTESTED_MODULES, ids=lambda m: m.__name__
)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module.__name__} lost its doctests"
    assert results.failed == 0
