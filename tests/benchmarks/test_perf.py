"""Performance suite: simulator throughput and exact-solver expansion rate.

Two kinds of tests live here:

* ``benchmark``-fixture tests, which the CI ``benchmarks`` job runs with
  ``--benchmark-enable --benchmark-json`` and uploads as an informational
  artifact.  In the regular (tier-1) test run the project-wide
  ``--benchmark-disable`` makes each of them a single plain call, so they
  double as smoke tests.  ``extra_info`` records the work done
  (moves/expansions) so rates are derivable from the artifact.
* ``test_bitmask_kernel_speedup_over_legacy``, the acceptance gate of
  ISSUE 2: the bitmask kernel must sustain at least a 5x higher
  expansions/sec rate than the legacy frozenset solver on a pyramid DAG.
  It times both engines directly (best-of-N, same interpreter, same
  instance).  The full 5x bar is enforced where the measurement is the
  point — benchmark-enabled runs, i.e. the CI ``benchmarks`` job, which
  also records the ratio in the JSON artifact; the gating tier-1 run
  (benchmarks disabled, noisy shared runners, ``-x``) asserts a wide
  1.5x sanity floor instead — low enough that best-of-3 timing jitter
  cannot abort the suite, high enough to catch "kernel slower than the
  legacy solver" regressions.
* ``test_numpy_batch_speedup_over_bits``, the same shape of gate for the
  batched numpy frontier engine: on a frontier large enough to amortize
  per-batch overhead (pyramid:4 under oneshot), ``engine="numpy"`` must
  sustain at least 3x the scalar bitmask kernel's expansions/sec.  On
  small frontiers the batch engine is *slower* than the scalar kernel
  (per-batch numpy overhead dominates), which is why the gate pins a
  large instance; the crossover is documented in docs/architecture.md.

Every exact solve here passes ``heuristic=None``: these measure the
engines' expansion rates on uniform-cost search, and the default bound
would shrink the searches they were sized for.
"""

import time

import pytest

from repro import PebblingInstance, PebblingSimulator
from repro.generators import grid_stencil_dag, pyramid_dag
from repro.heuristics import fixed_order_schedule
from repro.solvers import solve_optimal

from ..legacy_reference import solve_optimal_legacy


# --------------------------------------------------------------------- #
# simulator step throughput
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def grid_instance():
    return PebblingInstance(
        dag=grid_stencil_dag(6, 6), model="oneshot", red_limit=4
    )


@pytest.fixture(scope="module")
def grid_schedule(grid_instance):
    return fixed_order_schedule(grid_instance)


def test_simulator_step_throughput(benchmark, grid_instance, grid_schedule):
    sim = PebblingSimulator(grid_instance)
    result = benchmark(sim.run, grid_schedule, require_complete=True)
    assert result.complete
    benchmark.extra_info["moves"] = len(grid_schedule)


# --------------------------------------------------------------------- #
# exact-solver expansion rate (both engines recorded in the artifact)
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def pyramid_instance():
    return PebblingInstance(dag=pyramid_dag(3), model="oneshot", red_limit=4)


def test_exact_solver_bits(benchmark, pyramid_instance):
    result = benchmark(
        solve_optimal, pyramid_instance, return_schedule=False, heuristic=None
    )
    assert result.cost == 2
    benchmark.extra_info["expanded"] = result.expanded
    benchmark.extra_info["engine"] = "bits"


def test_exact_solver_legacy(benchmark, pyramid_instance):
    result = benchmark(
        solve_optimal_legacy, pyramid_instance, return_schedule=False
    )
    assert result.cost == 2
    benchmark.extra_info["expanded"] = result.expanded
    benchmark.extra_info["engine"] = "legacy"


# --------------------------------------------------------------------- #
# the ISSUE 2 acceptance gate: >= 5x expansions/sec on a pyramid DAG
# --------------------------------------------------------------------- #


def _expansion_rate(solver, instance, repeats=3):
    """Best-of-N expansions/sec (best = least timing noise)."""
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        result = solver(instance, return_schedule=False)
        elapsed = time.perf_counter() - start
        best = max(best, result.expanded / elapsed)
    return best, result


def _uniform_cost(instance, **kw):
    return solve_optimal(instance, heuristic=None, **kw)


def test_bitmask_kernel_speedup_over_legacy(benchmark, pyramid_instance):
    bits_rate, bits_result = _expansion_rate(_uniform_cost, pyramid_instance)
    legacy_rate, legacy_result = _expansion_rate(
        solve_optimal_legacy, pyramid_instance
    )
    assert bits_result.cost == legacy_result.cost == 2
    speedup = bits_rate / legacy_rate
    print(
        f"\nexpansions/sec: bits {bits_rate:,.0f} "
        f"vs legacy {legacy_rate:,.0f} -> {speedup:.1f}x"
    )
    benchmark.extra_info["bits_expansions_per_sec"] = round(bits_rate)
    benchmark.extra_info["legacy_expansions_per_sec"] = round(legacy_rate)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    # the fixture still needs one timed call to emit a JSON record
    benchmark(_uniform_cost, pyramid_instance, return_schedule=False)
    threshold = 5.0 if benchmark.enabled else 1.5
    assert speedup >= threshold, (
        f"bitmask kernel regressed: only {speedup:.2f}x the legacy "
        f"expansion rate (ISSUE 2 requires >= 5x, sanity floor {threshold}x)"
    )


# --------------------------------------------------------------------- #
# the batched-frontier gate: numpy engine >= 3x bits on a large frontier
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def large_pyramid_instance():
    # pyramid:4 / oneshot / R4: 154,836 uniform-cost expansions for the
    # scalar kernel, big equal-f buckets for the Dial queue -> wide batches.
    return PebblingInstance(dag=pyramid_dag(4), model="oneshot", red_limit=4)


def test_numpy_batch_speedup_over_bits(benchmark, large_pyramid_instance):
    inst = large_pyramid_instance
    numpy_rate, numpy_result = _expansion_rate(
        lambda i, **kw: _uniform_cost(i, engine="numpy", **kw), inst, repeats=2
    )
    bits_rate, bits_result = _expansion_rate(_uniform_cost, inst, repeats=2)
    assert numpy_result.cost == bits_result.cost == 4
    speedup = numpy_rate / bits_rate
    print(
        f"\nexpansions/sec: numpy {numpy_rate:,.0f} "
        f"vs bits {bits_rate:,.0f} -> {speedup:.1f}x"
    )
    benchmark.extra_info["numpy_expansions_per_sec"] = round(numpy_rate)
    benchmark.extra_info["bits_expansions_per_sec"] = round(bits_rate)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark(
        _uniform_cost, inst, engine="numpy", return_schedule=False
    )
    threshold = 3.0 if benchmark.enabled else 1.5
    assert speedup >= threshold, (
        f"batched numpy engine regressed: only {speedup:.2f}x the scalar "
        f"kernel expansion rate (target >= 3x, sanity floor {threshold}x)"
    )
