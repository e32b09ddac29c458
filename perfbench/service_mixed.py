"""The service-mixed workload: ``repro-pebble serve`` at its defaults,
driven by this process in a closed loop over one keep-alive connection.

Each replay starts a fresh server on a fresh in-memory sqlite store, so
every replay sends the same requests and does the same work: the first
sight of a cell is a store write (computed on a pool worker), every
later sight is a store read.  The store is kept in memory because on
disk every read commits (it updates ``last_used``), and the disk's
commit latency, which varies with the host's load, dominated the round
trip (DESIGN.md).  The stream is fixed from the seed before the run.
A replay is one repetition.  ``ops_per_s`` comes from the measured wall
time of the fastest replay and ``tail_ms`` is the median over replays of
each replay's tail, so what slows every replay moves them; ``p50_ms``
and ``geomean_ms`` take each request at its fastest round trip over the
replays, as the batch workload takes each cell at its fastest
repetition, and ``setup_s`` is the fastest of the replays' set-ups.
DESIGN.md gives the measurements behind each choice.
"""

from __future__ import annotations

import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from cells import SERVICE_CELLS, SERVICE_WARMUP

# sights of each cell per replay, the first a write: as in
# benchmarks/bench_service_load.py at its defaults, where 8 clients send
# 25 requests each, round-robin over 8 cells
REPEATS = 25
# /v1/batch [x, y, x, y] of two new cells: 4-cell batches are the shape
# that showed the worker-retirement stall (DESIGN.md); the count, 6, is
# assumed
COLD_BATCHES = 6
STALL_S = 1.0        # every cell computes in < 0.2 s; slower is a stall
TAIL_BEYOND = 10     # the tail percentile leaves this many samples beyond it
MIN_REPLAYS = 4      # traced runs alternate traced and untraced replays
START_TIMEOUT_S = 60
STOP_TIMEOUT_S = 20

Stream = List[List[int]]  # requests -> catalogue cell indices


def make_stream(seed: int) -> Stream:
    """The requests of a replay; each request lists catalogue cells.

    What is sent is the same for every seed: each cell REPEATS times;
    COLD_BATCHES batches that each carry two new cells twice (the second
    copies coalesce); every other request is a single query.  The seed
    fixes only the order: the first sights come shuffled, with repeats of
    earlier cells between them, and the rest of the repeats close the
    stream.
    """
    rng = random.Random(seed)
    cold = list(range(2 * COLD_BATCHES))
    units = [[x, y, x, y] for x, y in zip(cold[::2], cold[1::2])]
    units += [[cell] for cell in range(2 * COLD_BATCHES, len(SERVICE_CELLS))]
    rng.shuffle(units)
    requests: Stream = []
    pool: List[int] = []
    for unit in units:
        requests.append(unit)
        for cell in set(unit):
            pool += [cell] * (REPEATS - unit.count(cell))
        rng.shuffle(pool)
        requests += [[pool.pop()] for _ in range(REPEATS // 2)]
    rng.shuffle(pool)
    requests += [[cell] for cell in pool]
    return requests


def first_sights(stream: Stream) -> List[bool]:
    """Whether each request is a single query whose cell is new."""
    seen: set = set()
    flags = []
    for cells in stream:
        flags.append(len(cells) == 1 and cells[0] not in seen)
        seen.update(cells)
    return flags


def children(pid: int) -> List[int]:
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid and fields[0] != "Z":
            kids.append(int(entry))
    return kids


def peak_rss_mb(pids: List[int]) -> float:
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
        except OSError:
            pass
    return total / 1024


def alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class Server:
    """One ``repro-pebble serve`` process at its default settings, but for
    its store: a fresh sqlite database in memory."""

    def __init__(self, root: Path, log: Path) -> None:
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED="1")
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--store", "sqlite::memory:"],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log,
            start_new_session=True,
        )

    def url(self) -> str:
        line = self.proc.stdout.readline().decode()
        if "serving on " not in line:
            raise RuntimeError(f"serve did not start: {line!r}")
        return line.split("serving on ", 1)[1].strip()

    def wait_for_workers(self, count: int) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        while len(children(self.proc.pid)) < count:
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("the worker pool did not start")
            time.sleep(0.002)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb([self.proc.pid] + children(self.proc.pid))

    def stop(self) -> None:
        """SIGINT (the documented way to stop serve), then make sure every
        process of its session has ended."""
        workers = children(self.proc.pid)
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    os.killpg(self.proc.pid, signal.SIGKILL)
                    self.proc.wait(timeout=STOP_TIMEOUT_S)
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            deadline = time.monotonic() + STOP_TIMEOUT_S
            while any(alive(p) for p in workers):
                if time.monotonic() > deadline:
                    raise RuntimeError(f"workers {workers} outlived serve")
                time.sleep(0.01)
        finally:
            self.proc.stdout.close()
            self._log.close()


class Replay:
    """What one replay measured."""

    def __init__(self, stream: Stream) -> None:
        self.rtt = [math.inf] * len(stream)  # seconds; inf for a failed request
        self.answers: List[Optional[list]] = [None] * len(stream)
        self.errors: List[str] = []
        self.setup_s = 0.0
        self.stats: Dict[str, int] = {}
        self.rss_mb = 0.0
        self.wall_s = 0.0


def _answers(client: Any, queries: List[dict]) -> list:
    """Result records of one request; a non-2xx answer raises ServiceError."""
    if len(queries) == 1:
        return [{"ok": True, "result": client.query(queries[0])}]
    return client.batch(queries)


def replay(root: Path, out: Path, stream: Stream, k: int, tracer: Any) -> Replay:
    from repro.service import ServiceClient

    rep = Replay(stream)
    t0 = time.perf_counter()
    server = Server(root, out / "serve-stderr.log")
    try:
        url = server.url()
        with ServiceClient(url) as client:
            client.health()
            client.batch(SERVICE_WARMUP)
            server.wait_for_workers(2)
            rep.setup_s = time.perf_counter() - t0
            before = client.stats()["queue"]
            w0 = time.perf_counter()
            for j, cells in enumerate(stream):
                queries = [SERVICE_CELLS[c] for c in cells]
                a = time.perf_counter_ns()
                try:
                    rep.answers[j] = _answers(client, queries)
                except Exception as exc:  # non-2xx or a dropped connection
                    rep.errors.append(f"{queries}: {type(exc).__name__}: {exc}")
                    continue
                b = time.perf_counter_ns()
                rep.rtt[j] = (b - a) / 1e9
                if tracer is not None:
                    tracer.add("service.round_trip", a, b, f"{k}:{j}")
            rep.wall_s = time.perf_counter() - w0
            after = client.stats()["queue"]
            rep.stats = {key: after[key] - before[key] for key in before
                         if key != "largest_batch"}
            rep.rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    return rep


def reference_costs() -> List[Fraction]:
    """Each catalogue cell run inline through execute_task, outside timing."""
    from repro.experiments import TaskSpec, execute_task

    costs = []
    for q in SERVICE_CELLS:
        result = execute_task(TaskSpec(spec="reference", dag=q["dag"], model=q["model"],
                                       method=q["method"], red_limit=q["red_limit"]))
        if not result.ok:
            raise RuntimeError(f"reference run of {q} failed: {result.error}")
        costs.append(Fraction(result.cost))
    return costs


def check(rep: Replay, stream: Stream, reference: List[Fraction]) -> Tuple[int, int, Fraction]:
    """(answers attempted, answers failed, sum of returned costs)."""
    attempted = failed = 0
    total = Fraction(0)
    for j, cells in enumerate(stream):
        attempted += len(cells)
        got = rep.answers[j]
        if got is None or len(got) != len(cells):
            failed += len(cells)
            continue
        for cell, envelope in zip(cells, got):
            result = envelope.get("result") or {}
            if (not envelope.get("ok") or result.get("status") != "ok"
                    or Fraction(result["cost"]) != reference[cell]):
                failed += 1
                rep.errors.append(f"{SERVICE_CELLS[cell]}: {envelope}")
            else:
                total += reference[cell]
    return attempted, failed, total


def tail_ms(rep: Replay) -> float:
    """The round trip at the highest percentile that leaves TAIL_BEYOND
    round trips of the replay beyond it; failed requests have none."""
    ms = sorted(x * 1e3 for x in rep.rtt if x < math.inf)
    return ms[len(ms) - 1 - TAIL_BEYOND]


def end_to_end(plain: List[Replay], answers: int) -> Dict[str, float]:
    """The time metrics of a run, from its untraced replays.

    A request's time is its fastest round trip over the replays, which
    lands in a fast phase of the host; ``p50_ms`` and ``geomean_ms`` are
    taken over those, and ``setup_s`` is the fastest set-up.
    ``ops_per_s`` is that of the fastest replay, from its measured wall
    time, and ``tail_ms`` is the median over the replays, so what slows
    every replay moves them.
    """
    fastest = [min(r.rtt[j] for r in plain) * 1e3 for j in range(len(plain[0].rtt))]
    fastest = [x for x in fastest if x < math.inf]
    return {
        "setup_s": min(r.setup_s for r in plain),
        "ops_per_s": answers / min(r.wall_s for r in plain),
        "geomean_ms": math.exp(statistics.fmean(math.log(x) for x in fastest)),
        "p50_ms": statistics.median(fastest),
        "tail_ms": statistics.median(tail_ms(r) for r in plain),
    }


def run_service(seed: int, seconds: float, traced: bool, out: Path,
                probe: Callable[[], float]) -> Dict[str, Any]:
    from spans import Tracer

    root = out.parent
    out.mkdir(exist_ok=True)
    (out / "serve-stderr.log").write_bytes(b"")
    stream = make_stream(seed)
    answers_per_replay = sum(len(cells) for cells in stream)
    reference = reference_costs()
    tracer = Tracer() if traced else None
    plain: List[Replay] = []
    traced_reps: List[Replay] = []
    probes: List[float] = []
    attempted = failed = 0
    errors: List[str] = []
    cost_total: Optional[Fraction] = None

    start = time.perf_counter()
    k = 0
    while True:
        r0 = time.perf_counter()
        on = traced and k % 2 == 0
        rep = replay(root, out, stream, k, tracer if on else None)
        a, f, total = check(rep, stream, reference)
        attempted += a
        failed += f
        errors += rep.errors[:3]
        cost_total = total if cost_total is None else cost_total
        (traced_reps if on else plain).append(rep)
        probes.append(probe())
        k += 1
        elapsed = time.perf_counter() - start
        if k >= MIN_REPLAYS and elapsed + (time.perf_counter() - r0) > seconds:
            break

    everyone = plain + traced_reps
    stalls = sum(x > STALL_S for r in everyone for x in r.rtt)
    diagnostics: Dict[str, Any] = {
        "replays": k, "requests_per_replay": len(stream),
        "answers_per_replay": answers_per_replay,
        "probe_ms": probes,
        "replay_wall_s": [r.wall_s for r in everyone],
        "stalls": stalls, "errors": errors[:5],
    }
    if traced:
        metrics = service_layers(stream, plain, traced_reps)
        metrics["service.stalls"] = stalls
        tracer.dump(str(out / f"spans-service-mixed-seed{seed}.json"))
    else:
        trips = len(stream)
        diagnostics["setup_s"] = [r.setup_s for r in plain]
        diagnostics["tail"] = (f"p{100 * (trips - TAIL_BEYOND) / trips:.1f} of the "
                               f"{trips} round trips of a replay, {TAIL_BEYOND} beyond it")
        metrics = end_to_end(plain, answers_per_replay)
        metrics.update({
            "peak_rss_mb": statistics.median(r.rss_mb for r in plain),
            "cost_total": float(cost_total),
        })
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "diagnostics": diagnostics}


def service_layers(stream: Stream, plain: List[Replay],
                   traced_reps: List[Replay]) -> Dict[str, float]:
    """Per-layer service numbers from each traced replay's round trips,
    answers and /v1/stats deltas; the median over the traced replays."""
    first = first_sights(stream)

    def layers(r: Replay) -> Dict[str, float]:
        hits, colds, overheads = [], [], []
        task_s: Dict[int, float] = {}  # executed cell -> execute_task wall time
        for j, cells in enumerate(stream):
            got = r.answers[j]
            if got is None:
                continue
            for cell, envelope in zip(cells, got):
                if not envelope["result"]["cached"]:
                    task_s[cell] = envelope["result"]["wall_time"]
            if len(cells) != 1:
                continue
            ms = r.rtt[j] * 1e3
            if not first[j]:
                hits.append(ms)
                continue
            colds.append(ms)
            overheads.append(ms - got[0]["result"]["wall_time"] * 1e3)
        return {
            "service.hit_ms": statistics.median(hits),
            "service.cold_ms": statistics.median(colds),
            "service.overhead_ms": statistics.median(overheads),
            "experiments.task_ms": sum(task_s.values()) * 1e3,
            "service.hit_ratio": r.stats["cache_hits"] / r.stats["requests"],
            "service.batch_size": r.stats["executed"] / r.stats["batches"],
            "service.coalesced": r.stats["coalesced"],
            "service.executed": r.stats["executed"],
            "service.errors": r.stats["errors"],
        }

    per_replay = [layers(r) for r in traced_reps]
    metrics = {name: statistics.median(t[name] for t in per_replay)
               for name in per_replay[0]}
    wall_plain = statistics.median(r.wall_s for r in plain)
    wall_traced = statistics.median(r.wall_s for r in traced_reps)
    metrics["bench.trace_overhead_pct"] = (wall_traced / wall_plain - 1) * 100
    return metrics
