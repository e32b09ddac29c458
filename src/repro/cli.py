"""Command-line interface: ``repro-pebble`` / ``python -m repro``.

Subcommands
-----------
info       describe a DAG (from JSON or a built-in generator)
solve      exact optimal pebbling of a (small) instance
greedy     run a Section 8 greedy rule
baseline   the naive (2*Delta+1)*n topological strategy
tradeoff   opt(R) curve of the Figure 3 construction
hampath    Theorem 2 reduction: decide Hamiltonian path via pebbling
table1     print Table 1 (operation costs per model)
table2     print Table 2 (model properties)
bench      experiment runner: list/run/compare declarative specs
serve      pebbling-as-a-service: long-running async HTTP/JSON API
query      client for a running server (one cell per call)

Generator specs for --dag: ``pyramid:H``, ``chain:N``, ``tree:LEAVES``,
``grid:RxC``, ``butterfly:K``, ``matmul:N[:bB]``, ``conv:N:K[:cC]``,
``attn:S[:hH]``, ``stencil:RxC[:tT]``, ``tasks:WxC``,
``layered:L1-...-Lk[:dD][:sS]``, ``tradeoff:DxN``, ``rand:N:P[:dD][:sS]``,
the hardness constructions ``hampath:GRAPH`` / ``vc:GRAPH[:kK]`` /
``ggrid:LxK`` / ``cd:R:H`` / ``h2c:R``, or ``@file.json`` /
``@file.dot`` / ``@file.edges`` to import a DAG from disk
(see :mod:`repro.generators.specs`, including the graph-spec grammar
the reductions embed).

The ``bench`` subcommand drives :mod:`repro.experiments`::

    repro-pebble bench list
    repro-pebble bench run sec3-bounds --jobs 4 --out results.json
    repro-pebble bench run hardness-smoke --jobs 2
    repro-pebble bench compare before.json after.json

After a run, every assertion suite registered for the spec (see
:func:`repro.experiments.register_check`) is executed against the
results; a violated theorem invariant fails the command like a task
error would (``--no-check`` skips the suites).

The service pair (see ``docs/serving.md``)::

    repro-pebble serve --port 8757 --jobs 4 --store results/service.sqlite
    repro-pebble query --dag pyramid:4 --method exact --red min+1
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .analysis.ascii_plots import ascii_plot, render_table
from .analysis.tables import table1_rows, table2_rows
from .core.dag import ComputationDAG
from .core.errors import PebblingError
from .core.instance import PebblingInstance
from .core.simulator import PebblingSimulator
from .generators import random_graph
from .heuristics import greedy_pebble, topological_schedule

__all__ = ["main"]


def _load_dag(spec: str) -> ComputationDAG:
    from .generators import dag_from_spec

    try:
        return dag_from_spec(spec)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _instance(args) -> PebblingInstance:
    dag = _load_dag(args.dag)
    red = args.red if args.red is not None else dag.min_red_pebbles
    return PebblingInstance(dag=dag, model=args.model, red_limit=red)


def _add_instance_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dag", required=True, help="generator spec or @file.json")
    p.add_argument(
        "--model",
        default="oneshot",
        choices=["base", "oneshot", "nodel", "compcost"],
    )
    p.add_argument("--red", type=int, default=None, help="R (default: Delta+1)")


def cmd_info(args) -> int:
    dag = _load_dag(args.dag)
    print(f"nodes        : {dag.n_nodes}")
    print(f"edges        : {dag.n_edges}")
    print(f"max indegree : {dag.max_indegree}")
    print(f"min red (R)  : {dag.min_red_pebbles}")
    print(f"sources      : {len(dag.sources)}")
    print(f"sinks        : {len(dag.sinks)}")
    print(f"depth        : {dag.depth()}")
    return 0


def cmd_solve(args) -> int:
    from .solvers.exact import solve_optimal

    inst = _instance(args)
    try:
        result = solve_optimal(inst, budget=args.budget, engine=args.engine)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    print(f"instance : {inst.describe()}")
    print(f"engine   : {args.engine}")
    print(f"heuristic: {result.heuristic}")
    print(f"optimal  : {result.cost}")
    print(f"length   : {result.length} moves")
    print(f"expanded : {result.expanded} states")
    if args.show_schedule:
        print(result.schedule.compact_str())
    return 0


def cmd_greedy(args) -> int:
    inst = _instance(args)
    result = greedy_pebble(inst, args.rule)
    print(f"instance : {inst.describe()}")
    print(f"rule     : {result.rule.value}")
    print(f"cost     : {result.cost}")
    print(f"moves    : {len(result.schedule)}")
    return 0


def cmd_baseline(args) -> int:
    inst = _instance(args)
    sched = topological_schedule(inst)
    res = PebblingSimulator(inst).run(sched, require_complete=True)
    from .solvers.bounds import upper_bound_naive

    print(f"instance : {inst.describe()}")
    print(f"cost     : {res.cost} (bound {upper_bound_naive(inst.dag, inst.model)})")
    return 0


def cmd_tradeoff(args) -> int:
    from .core.models import Model
    from .gadgets.tradeoff import optimal_tradeoff_schedule, tradeoff_dag

    td = tradeoff_dag(args.d, args.chain)
    points = []
    for i in range(args.d + 1):
        r = args.d + 2 + i
        inst = PebblingInstance(dag=td.dag, model=Model.ONESHOT, red_limit=r)
        cost = PebblingSimulator(inst).run(
            optimal_tradeoff_schedule(td, r, "oneshot"), require_complete=True
        ).cost
        points.append((r, float(cost)))
    print(
        ascii_plot(
            {"opt(R)": points},
            title=f"Figure 4 tradeoff: d={args.d}, chain={args.chain}",
            x_label="R",
            y_label="cost",
        )
    )
    return 0


def cmd_hampath(args) -> int:
    from .npc.hamiltonian import has_hamiltonian_path
    from .reductions.hampath import hampath_reduction

    g = random_graph(args.n, args.p, seed=args.seed)
    red = hampath_reduction(g, args.model)
    cost, order = red.optimal_order()
    threshold = red.decision_threshold()
    print(f"graph          : n={g.n}, m={g.m} (seed {args.seed})")
    print(f"pebbling DAG   : {red.dag.n_nodes} nodes, R={red.red_limit}")
    print(f"optimal cost   : {cost}")
    print(f"threshold      : {threshold}")
    print(f"pebbling says  : hamiltonian={cost <= threshold}")
    print(f"ground truth   : hamiltonian={has_hamiltonian_path(g)}")
    return 0


def cmd_table1(args) -> int:
    print(render_table(table1_rows(), title="Table 1: operation costs per model"))
    return 0


def cmd_table2(args) -> int:
    print(render_table(table2_rows(), title="Table 2: model properties"))
    return 0


def cmd_bench_list(args) -> int:
    from .experiments import all_specs

    specs = all_specs(tag=args.tag)
    if not specs:
        print("no experiment specs registered" + (f" with tag {args.tag!r}" if args.tag else ""))
        return 1
    rows = [
        {
            "spec": s.name,
            "tasks": s.n_tasks,
            "tags": ",".join(s.tags),
            "description": s.description,
        }
        for s in specs
    ]
    print(render_table(rows, title="experiment specs"))
    return 0


def cmd_bench_run(args) -> int:
    from .analysis.experiments import results_table, summarize_results
    from .experiments import Runner, checks_for, get_spec, run_spec_checks
    from .io import run_results_to_csv, run_results_to_json

    if args.jobs < 0:
        raise SystemExit("--jobs must be >= 0 (0 = inline)")
    try:
        specs = [get_spec(name) for name in args.spec]
    except KeyError as exc:
        raise SystemExit(exc.args[0]) from None

    runner = Runner(
        jobs=args.jobs,
        timeout=args.timeout,
        cache_dir=None if args.no_cache else args.cache_dir,
        refresh=args.refresh,
    )

    def progress(result):
        if args.quiet:
            return
        note = "cache" if result.cached else f"{result.wall_time:.2f}s"
        cell = result.cost if result.ok else result.status.value
        print(
            f"  [{result.spec}] {result.dag} {result.model} {result.method} "
            f"R={result.red_limit} -> {cell} ({note})"
        )

    all_results = []
    for spec in specs:
        if not args.quiet:
            print(f"running {spec.describe()}")
        all_results.extend(runner.run(spec, on_result=progress))

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(run_results_to_json(all_results))
        print(f"wrote {len(all_results)} results to {args.out}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(run_results_to_csv(all_results))
        print(f"wrote {len(all_results)} results to {args.csv}")

    for spec in specs:
        rows = results_table([r for r in all_results if r.spec == spec.name])
        print(render_table(rows, title=f"{spec.name}: cost by method"))
    summary = summarize_results(all_results)
    print(
        f"{summary['tasks']} tasks: {summary['ok']} ok, "
        f"{summary['timeout']} timeout, {summary['error']} error, "
        f"{summary['infeasible']} infeasible, {summary['cached']} cached "
        f"({summary['wall_time']}s task time)"
    )
    failed = summary["timeout"] + summary["error"]

    checks_failed = 0
    if not args.no_check:
        for spec in specs:
            if not checks_for(spec.name):
                continue
            spec_results = [r for r in all_results if r.spec == spec.name]
            try:
                n = run_spec_checks(spec.name, spec_results)
            except AssertionError as exc:
                checks_failed += 1
                print(f"CHECK FAILED {exc}")
            except Exception as exc:  # e.g. stale cached extras missing a key
                checks_failed += 1
                print(f"CHECK FAILED [{spec.name}] {type(exc).__name__}: {exc}")
            else:
                print(f"[{spec.name}] {n} assertion suite(s) passed")
    return 1 if failed or checks_failed else 0


def _load_results(path: str):
    from .io import run_results_from_csv, run_results_from_json

    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        if path.endswith(".csv"):
            return run_results_from_csv(text)
        return run_results_from_json(text)
    except KeyError as exc:  # records missing required fields
        raise ValueError(f"malformed result record (missing {exc.args[0]!r})") from None


def cmd_bench_compare(args) -> int:
    from .analysis.experiments import compare_results, results_table

    try:
        baseline = _load_results(args.baseline)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read {args.baseline}: {exc}") from None
    if args.candidate is None:
        print(render_table(results_table(baseline), title=args.baseline))
        return 0
    try:
        candidate = _load_results(args.candidate)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read {args.candidate}: {exc}") from None
    rows = compare_results(
        baseline, candidate, labels=(args.baseline, args.candidate)
    )
    print(render_table(rows, title="cost comparison (ratio = candidate/baseline)"))
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from .experiments.backends import backend_for_jobs
    from .service import PebbleService
    from .experiments.store import open_store

    if args.jobs < 0:
        raise SystemExit("--jobs must be >= 0 (0 = inline, no timeouts)")
    store = open_store(None if args.no_store else args.store)
    backend = backend_for_jobs(args.jobs)
    service = PebbleService(
        backend,
        store,
        default_timeout=args.timeout,
        max_batch=args.max_batch,
        dispatchers=args.dispatchers,
        own_resources=True,
    )

    async def run() -> None:
        host, port = await service.start(args.host, args.port)
        print(f"repro-pebble serving on http://{host}:{port}")
        print(f"  backend : jobs={args.jobs} "
              f"({'inline, no timeouts' if args.jobs == 0 else 'worker pool'})")
        print(f"  store   : {'none' if store is None else args.store}")
        print(f"  timeout : {args.timeout}s/request — Ctrl-C to stop")
        try:
            await service.serve_forever()
        finally:
            await service.aclose()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("\nshutting down")
    return 0


def cmd_query(args) -> int:
    from .service.client import ServiceClient, ServiceError

    payload = {"dag": args.dag, "model": args.model, "method": args.method}
    if args.red is not None:
        payload["red_limit"] = args.red
    if args.timeout is not None:
        payload["timeout"] = args.timeout
    with ServiceClient(args.url) as client:
        try:
            result = client.query(payload)
        except ServiceError as exc:
            raise SystemExit(str(exc)) from None
        except ConnectionError as exc:
            raise SystemExit(f"cannot reach {args.url}: {exc} "
                             f"(is `repro-pebble serve` running?)") from None
    if args.json:
        import json as _json

        print(_json.dumps(result, indent=2))
        return 0
    status = result.get("status", "?")
    print(f"dag     : {result.get('dag')}")
    print(f"method  : {result.get('method')} ({result.get('model')}, "
          f"R={result.get('red_limit')})")
    print(f"status  : {status}" + (" (cached)" if result.get("cached") else ""))
    if status == "ok":
        print(f"cost    : {result.get('cost')}")
        if result.get("n_moves") is not None:
            print(f"moves   : {result.get('n_moves')}")
    elif result.get("error"):
        print(f"error   : {result['error']}")
    print(f"wall    : {result.get('wall_time', 0):.4f}s")
    return 0 if status in ("ok", "infeasible") else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-pebble",
        description="Red-blue pebble games: solvers and hardness experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="describe a DAG")
    p.add_argument("--dag", required=True)
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("solve", help="exact optimal pebbling (small DAGs)")
    _add_instance_args(p)
    p.add_argument("--budget", type=int, default=2_000_000)
    p.add_argument("--show-schedule", action="store_true")
    p.add_argument("--engine", default="bits", choices=["bits", "numpy"],
                   help="search engine (default: bits)")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("greedy", help="greedy pebbling (Section 8 rules)")
    _add_instance_args(p)
    p.add_argument(
        "--rule",
        default="most-red-inputs",
        choices=["most-red-inputs", "fewest-blue-inputs", "red-ratio"],
    )
    p.set_defaults(fn=cmd_greedy)

    p = sub.add_parser("baseline", help="naive (2D+1)n topological strategy")
    _add_instance_args(p)
    p.set_defaults(fn=cmd_baseline)

    p = sub.add_parser("tradeoff", help="Figure 4 tradeoff curve")
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--chain", type=int, default=30)
    p.set_defaults(fn=cmd_tradeoff)

    p = sub.add_parser("hampath", help="Theorem 2 reduction demo")
    p.add_argument("--n", type=int, default=7)
    p.add_argument("--p", type=float, default=0.4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--model",
        default="oneshot",
        choices=["base", "oneshot", "nodel", "compcost"],
    )
    p.set_defaults(fn=cmd_hampath)

    p = sub.add_parser("table1", help="print Table 1")
    p.set_defaults(fn=cmd_table1)

    p = sub.add_parser("table2", help="print Table 2")
    p.set_defaults(fn=cmd_table2)

    bench = sub.add_parser("bench", help="experiment runner (repro.experiments)")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    p = bench_sub.add_parser("list", help="list registered experiment specs")
    p.add_argument("--tag", default=None, help="only specs carrying this tag")
    p.set_defaults(fn=cmd_bench_list)

    p = bench_sub.add_parser("run", help="run one or more specs")
    p.add_argument("spec", nargs="+", help="spec name(s); see `bench list`")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (0 = inline, no timeouts)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-task seconds (overrides the spec's own)")
    p.add_argument("--out", default=None, help="write results JSON here")
    p.add_argument("--csv", default=None, help="write results CSV here")
    p.add_argument("--cache-dir", default="results/cache",
                   help="result cache directory (default: results/cache)")
    p.add_argument("--no-cache", action="store_true", help="disable the result cache")
    p.add_argument("--refresh", action="store_true",
                   help="recompute cached cells (and rewrite them)")
    p.add_argument("--quiet", action="store_true", help="no per-task progress lines")
    p.add_argument("--no-check", action="store_true",
                   help="skip the spec's registered assertion suites")
    p.set_defaults(fn=cmd_bench_run)

    p = bench_sub.add_parser("compare", help="render or compare result artifacts")
    p.add_argument("baseline", help="results JSON/CSV artifact")
    p.add_argument("candidate", nargs="?", default=None,
                   help="second artifact to compare against (optional)")
    p.set_defaults(fn=cmd_bench_compare)

    p = sub.add_parser("serve", help="async HTTP/JSON API over the runner")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8757)
    p.add_argument("--jobs", type=int, default=2,
                   help="worker processes (0 = inline, no timeout enforcement)")
    p.add_argument("--store", default="results/service.sqlite",
                   help="persistent result store: a .sqlite/.db path, a cache "
                        "directory, or 'memory' (default: results/service.sqlite)")
    p.add_argument("--no-store", action="store_true",
                   help="serve without any result store")
    p.add_argument("--timeout", type=float, default=60.0,
                   help="default per-request seconds (default: 60)")
    p.add_argument("--max-batch", type=int, default=64,
                   help="max queued cells dispatched as one grid batch")
    p.add_argument("--dispatchers", type=int, default=2,
                   help="concurrent batch dispatch threads")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("query", help="query a running server")
    p.add_argument("--url", default="http://127.0.0.1:8757")
    p.add_argument("--dag", required=True, help="generator spec or @file.json")
    p.add_argument("--model", default="oneshot",
                   choices=["base", "oneshot", "nodel", "compcost"])
    p.add_argument("--method", default="exact",
                   help="experiment method name (default: exact)")
    p.add_argument("--red", default=None,
                   help="red limit: an int, 'min' or 'min+K' (default: min)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-request seconds (server default otherwise)")
    p.add_argument("--json", action="store_true", help="print the raw JSON record")
    p.set_defaults(fn=cmd_query)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except PebblingError as exc:
        raise SystemExit(str(exc)) from None


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
