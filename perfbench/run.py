"""Benchmark runner for repro-pebble.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads, metrics and the reasons
for each are in BENCHMARK.json and perfbench/DESIGN.md.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric of
BENCHMARK.json when ``--trace 0``, every per-layer metric when
``--trace 1``.  The line before it holds diagnostics (the host-speed
probe, set-up samples, repetition counts), which are not metrics.

Timing rule: the host's speed drifts in phases of seconds, so every cell
is repeated across the whole run, in an order shuffled from the seed each
round after the first, and timed as its fastest repetition.  Set-up is
sampled in fresh interpreters spread through the run and reported as the
fastest sample (perfbench/DESIGN.md).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: run artefacts (span dumps, the server's stderr log); listed in .gitignore
OUT = ROOT / ".perfbench"

BATCH = ("batch-mixed",)
SERVICE = "service-mixed"
TAIL_BEYOND = 10  # the tail percentile leaves this many cells beyond it

SETUP_SAMPLES = 15
MIN_ROUNDS = 4  # traced runs alternate traced and untraced rounds
SETUP_TIMEOUT_S = 60


def probe_ms() -> float:
    """Host-speed probe: a fixed pure-Python loop, in ms.

    A diagnostic beside the metrics: a run whose probe is slow ran in a
    slow phase of the host, not on a slow program.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    return (time.perf_counter() - t0) * 1e3


def summary(values: List[float]) -> Dict[str, float]:
    return {"min": min(values), "median": statistics.median(values),
            "n": len(values)}


def setup_sample(workload: str) -> float:
    """Seconds from spawning a fresh interpreter until it is ready to time."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        cwd=ROOT, stdout=subprocess.PIPE,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=SETUP_TIMEOUT_S)
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
    return elapsed


def run_batch(name: str, seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    from batch import WORKLOADS
    from spans import OFF, Tracer

    wl = WORKLOADS[name]()
    wl.prepare()
    rng = random.Random(seed)
    cells = list(wl.cells)
    n = len(cells)
    inf = float("inf")
    best = [inf] * n        # fastest untraced repetition, seconds
    best_traced = [inf] * n
    layers: List[Dict[str, float]] = [{} for _ in range(n)]  # min self ms
    nosched = [inf] * n     # traced solve without schedule, ms
    costs: Dict[int, Fraction] = {}
    counts: Dict[int, tuple] = {}
    attempted = failed = 0
    errors: List[str] = []
    probes: List[float] = []
    setups: List[float] = []
    tracer = Tracer() if traced else None

    def record_failure(i: int, why: str) -> None:
        nonlocal failed
        failed += 1
        if len(errors) < 5:
            errors.append(f"{cells[i]}: {why}")

    start = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        traced_round = traced and rounds % 2 == 0
        # round 0 keeps catalogue order, so the memory high-water mark,
        # which the first pass sets, does not depend on the seed
        for i in rng.sample(range(n), n) if rounds else range(n):
            cell = cells[i]
            attempted += 1
            try:
                if traced_round:
                    tracer.begin_op(f"{rounds}:{i}")
                    t0 = time.perf_counter()
                    with tracer.span("op"):
                        out = wl.op(cell, tracer)
                    dt = time.perf_counter() - t0
                    selfs = tracer.last_op_self_ms()
                    if wl.exact(cell):
                        tracer.begin_op(f"{rounds}:{i}:nosched")
                        wl.nosched(cell, tracer)
                        ns = tracer.last_op_self_ms()["solvers.solve_nosched"]
                        nosched[i] = min(nosched[i], ns)
                    tracer.end_op()
                else:
                    t0 = time.perf_counter()
                    out = wl.op(cell, OFF)
                    dt = time.perf_counter() - t0
                ok = wl.check(cell, out)
            except Exception as exc:  # a crashing op is a failed op
                record_failure(i, f"{type(exc).__name__}: {exc}")
                continue
            if costs.setdefault(i, out.cost) != out.cost:
                ok = False
            if counts.setdefault(i, (out.expanded, out.generated)) != (
                    out.expanded, out.generated):
                ok = False
            if not ok:
                record_failure(i, f"wrong answer {out.cost}")
                continue
            if traced_round:
                best_traced[i] = min(best_traced[i], dt)
                for layer, ms in selfs.items():
                    layers[i][layer] = min(layers[i].get(layer, inf), ms)
            else:
                best[i] = min(best[i], dt)
        rounds += 1
        if rounds == 1:  # later rounds add a seed-dependent few MB
            first_pass_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        probes.append(probe_ms())
        elapsed = time.perf_counter() - start
        if not traced:
            while (len(setups) < SETUP_SAMPLES
                   and elapsed >= seconds * len(setups) / SETUP_SAMPLES):
                setups.append(setup_sample(name))
                elapsed = time.perf_counter() - start
        last_round = time.perf_counter() - round_start
        if rounds >= MIN_ROUNDS and elapsed + last_round > seconds:
            break
    while not traced and len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(name))

    timed = [b for b in best if b < inf]
    diagnostics: Dict[str, Any] = {
        "rounds": rounds, "cells": n, "probe_ms": probes, "errors": errors,
    }
    if traced:
        metrics = batch_layers(layers, nosched, counts, best, best_traced)
        dump_spans(tracer, name, seed)
    else:
        ms = [b * 1e3 for b in timed]
        diagnostics["setup_s"] = setups
        diagnostics["tail"] = (f"p{100 * (len(ms) - TAIL_BEYOND) / len(ms):.1f} of "
                               f"the {len(ms)} cells, {TAIL_BEYOND} beyond it")
        metrics = {
            "setup_s": min(setups),
            "ops_per_s": len(timed) / sum(timed),
            "geomean_ms": math.exp(statistics.fmean(math.log(x) for x in ms)),
            "p50_ms": statistics.median(ms),
            "tail_ms": sorted(ms)[len(ms) - 1 - TAIL_BEYOND],
            "peak_rss_mb": first_pass_rss / 1024,
            "cost_total": float(wl.pass_cost({cells[i]: c for i, c in costs.items()})),
        }
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "diagnostics": diagnostics}


def batch_layers(layers: List[Dict[str, float]], nosched: List[float],
                 counts: Dict[int, tuple], best: List[float],
                 best_traced: List[float]) -> Dict[str, float]:
    """Per-pass layer totals: each cell's fastest traced self time, summed."""

    def total(layer: str) -> float:
        return sum(cell.get(layer, 0.0) for cell in layers)

    solve_ms = total("solvers.solve")
    expanded = sum(c[0] for c in counts.values())
    generated = sum(c[1] for c in counts.values())
    return {
        "generators.build_ms": total("generators.build"),
        "solvers.solve_ms": solve_ms,
        "solvers.trace_ms": solve_ms - sum(x for x in nosched if x < math.inf),
        "solvers.expanded": expanded,
        "solvers.generated": generated,
        "solvers.expand_ratio": expanded / generated if generated else 0.0,
        "solvers.expand_per_s": expanded / (solve_ms / 1e3) if solve_ms else 0.0,
        "core.audit_ms": total("core.audit"),
        "heuristics.greedy_ms": total("heuristics.greedy"),
        "heuristics.evict_ms": total("heuristics.evict"),
        "core.simulate_ms": total("core.simulate"),
        "bench.trace_overhead_pct": (sum(best_traced) / sum(best) - 1) * 100,
    }


def dump_spans(tracer: Any, name: str, seed: int) -> None:
    OUT.mkdir(exist_ok=True)
    tracer.dump(str(OUT / f"spans-{name}-seed{seed}.json"))


def declared_metrics(traced: bool) -> Dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=BATCH + (SERVICE,))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'repro'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"imported repro from {repro.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))

    if args.workload == SERVICE:
        from service_mixed import run_service

        result = run_service(args.seed, args.seconds, bool(args.trace), OUT, probe_ms)
    else:
        result = run_batch(args.workload, args.seed, args.seconds, bool(args.trace))

    computed = result["metrics"]
    if not args.trace and set(computed) != set(declared):
        raise RuntimeError(f"metrics {sorted(computed)} != declared {sorted(declared)}")
    # a layer off this workload's path did no work, so it reads 0
    metrics = {name: {"value": computed.get(name, 0.0), "unit": unit}
               for name, unit in declared.items()}
    diagnostics = result["diagnostics"]
    for key in ("probe_ms", "setup_s"):  # samples, summarised
        if key in diagnostics:
            diagnostics[key] = summary(diagnostics[key])
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, **diagnostics}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
