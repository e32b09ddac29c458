"""Pluggable execution backends for the experiment scheduling core.

PR 1's :class:`~repro.experiments.Runner` hard-wired two execution
modes (inline / a per-run multiprocessing pool).  The service layer
needs a third shape — a *persistent* worker pool that survives across
many small request batches — so execution is now its own interface:

* :class:`InlineBackend` — runs tasks in the calling process,
  deterministic and debugger-friendly; cannot enforce timeouts;
* :class:`MultiprocessingBackend` — a pool of worker processes with
  per-task timeouts and crash isolation.  Workers are **persistent**:
  they stay warm between :meth:`run_tasks` calls (a worker killed by a
  timeout or crash is replaced), which is what makes sub-second service
  requests viable — no process spawn on the request path.

The :class:`Runner` keeps its PR 1 semantics by creating a backend per
``run()`` call when not handed one; the service creates one
:class:`MultiprocessingBackend` at startup and feeds it request batches
for its whole lifetime.

Contract: ``run_tasks([(key, task), ...])`` returns ``(key, result)``
pairs in *completion* order (keys are opaque to the backend).  Every
submitted task produces exactly one result — timeouts and worker deaths
yield ``timeout`` / ``error`` records, never lost tasks.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import threading
import time
import traceback
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from multiprocessing.connection import Connection

from .results import RunResult, RunStatus
from .spec import TaskSpec, resolve_red_limit

__all__ = [
    "ExecutionBackend",
    "InlineBackend",
    "MultiprocessingBackend",
    "execute_task",
    "backend_for_jobs",
    "PipeWorker",
    "spawn_pipe_worker",
    "retire_pipe_worker",
]


def execute_task(task: TaskSpec) -> RunResult:
    """Run one task to completion in the current process."""
    from fractions import Fraction

    from ..core.errors import InfeasibleInstanceError
    from ..core.instance import PebblingInstance
    from ..generators import dag_from_spec
    from .methods import resolve_method

    start = time.perf_counter()
    red: Optional[int] = None
    try:
        method = resolve_method(task.method)
        dag = dag_from_spec(task.dag)
        red = resolve_red_limit(task.red_limit, dag.min_red_pebbles)
        inst = PebblingInstance(
            dag=dag,
            model=task.model,
            red_limit=red,
            epsilon=Fraction(task.epsilon),
        )
        outcome = method(inst, task)
    except InfeasibleInstanceError as exc:
        return RunResult(
            spec=task.spec,
            dag=task.dag,
            model=task.model,
            method=task.method,
            red_limit=red,
            status=RunStatus.INFEASIBLE,
            wall_time=time.perf_counter() - start,
            task_hash=task.content_hash(),
            error=str(exc),
        )
    except Exception as exc:
        return RunResult(
            spec=task.spec,
            dag=task.dag,
            model=task.model,
            method=task.method,
            red_limit=red,
            status=RunStatus.ERROR,
            wall_time=time.perf_counter() - start,
            task_hash=task.content_hash(),
            error=f"{type(exc).__name__}: {exc}",
        )
    return RunResult(
        spec=task.spec,
        dag=task.dag,
        model=task.model,
        method=task.method,
        red_limit=red,
        cost=str(outcome.cost),
        n_moves=outcome.n_moves,
        status=RunStatus.OK,
        wall_time=time.perf_counter() - start,
        task_hash=task.content_hash(),
        extra=dict(outcome.extra),
    )


def _failure_result(task: TaskSpec, status: RunStatus, error: str,
                    wall: float) -> RunResult:
    # resolve R here so the failed cell lands in the same table row as
    # its siblings; DAG construction is cheap even when the method isn't
    try:
        from ..generators import dag_from_spec

        red = resolve_red_limit(task.red_limit, dag_from_spec(task.dag).min_red_pebbles)
    except Exception:
        red = task.red_limit if isinstance(task.red_limit, int) else None
    return RunResult(
        spec=task.spec,
        dag=task.dag,
        model=task.model,
        method=task.method,
        red_limit=red,
        status=status,
        wall_time=wall,
        task_hash=task.content_hash(),
        error=error,
    )


OnResult = Optional[Callable[[RunResult], None]]


class ExecutionBackend:
    """Interface: execute a batch of keyed tasks, one result per task."""

    #: whether per-task timeouts are enforced (the scheduling core warns
    #: callers relying on timeouts otherwise)
    enforces_timeouts = False

    def run_tasks(
        self,
        batch: Sequence[Tuple[int, TaskSpec]],
        *,
        timeout: Optional[float] = None,
        on_result: OnResult = None,
    ) -> List[Tuple[int, RunResult]]:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class InlineBackend(ExecutionBackend):
    """Run tasks sequentially in the calling process (no timeouts)."""

    def run_tasks(
        self,
        batch: Sequence[Tuple[int, TaskSpec]],
        *,
        timeout: Optional[float] = None,
        on_result: OnResult = None,
    ) -> List[Tuple[int, RunResult]]:
        produced = []
        for key, task in batch:
            result = execute_task(task)
            produced.append((key, result))
            if on_result:
                on_result(result)
        return produced


def _worker_loop(conn: "Connection") -> None:  # pragma: no cover - exercised in subprocesses
    """Worker process: receive task dicts, send back result dicts."""
    try:
        while True:
            payload = conn.recv()
            if payload is None:
                break
            try:
                result = execute_task(TaskSpec.from_dict(payload))
                conn.send(result.to_dict())
            except Exception:
                conn.send({"__worker_error__": traceback.format_exc()})
    except (EOFError, KeyboardInterrupt):
        pass
    finally:
        conn.close()


@dataclass
class PipeWorker:
    """A worker process plus the parent end of its duplex pipe."""

    process: multiprocessing.Process
    conn: "multiprocessing.connection.Connection"
    task: Optional[TaskSpec] = None
    started: float = 0.0


#: serialises :func:`spawn_pipe_worker` across threads (see there)
_SPAWN_LOCK = threading.Lock()

#: the parent end of every live worker's pipe (filled under _SPAWN_LOCK)
_PARENT_ENDS: "weakref.WeakSet[Connection]" = weakref.WeakSet()


def _close_inherited_parent_ends() -> None:  # pragma: no cover - runs in forked children
    for conn in list(_PARENT_ENDS):
        conn.close()
    _PARENT_ENDS.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_close_inherited_parent_ends)


def spawn_pipe_worker(ctx: multiprocessing.context.BaseContext, target: Callable) -> PipeWorker:
    """Start ``target(child_conn)`` as a daemon process with a pipe.

    Spawns are serialised: a fork from another thread that landed between
    this spawn's pipe creation and the parent closing the child's ends
    would hand that sibling the write end of this worker's sentinel
    pipe, and :func:`retire_pipe_worker`'s ``join`` would then wait out
    its whole timeout for a death the sentinel never signals.

    A forked child closes every parent end it inherited, its own and
    those of the workers spawned before it, so each worker reads EOF as
    soon as the parent closes its end (or dies).
    """
    with _SPAWN_LOCK:
        # the child inherits this lock in its held state; that is safe
        # because pool workers are daemonic and never spawn
        parent_conn, child_conn = ctx.Pipe()
        _PARENT_ENDS.add(parent_conn)
        proc = ctx.Process(target=target, args=(child_conn,), daemon=True)
        proc.start()
        child_conn.close()
    return PipeWorker(process=proc, conn=parent_conn)


def retire_pipe_worker(worker: PipeWorker) -> None:
    """Close the pipe and terminate the process (idempotent, best-effort)."""
    try:
        worker.conn.close()
    except OSError:
        pass
    worker.process.terminate()
    worker.process.join(timeout=5)


class MultiprocessingBackend(ExecutionBackend):
    """Persistent worker-process pool with timeouts and crash isolation.

    Parameters
    ----------
    jobs:
        Number of worker processes (>= 1).
    timeout:
        Backend-level per-task wall-clock limit; a per-call ``timeout``
        or the task's own ``timeout`` can override/raise it (the
        effective limit is call override > task > backend).

    A worker stuck past its limit is terminated and replaced
    (``status=timeout``); a worker that dies mid-task (segfault, OOM
    kill, ``os._exit``) yields an ``error`` record and a fresh worker —
    the batch, and any later batch, keeps going.
    """

    enforces_timeouts = True

    def __init__(self, jobs: int = 1, *, timeout: Optional[float] = None) -> None:
        if jobs < 1:
            raise ValueError(f"MultiprocessingBackend needs jobs >= 1, got {jobs}")
        self.jobs = jobs
        self.timeout = timeout
        self._ctx = multiprocessing.get_context()
        self._idle: List[PipeWorker] = []
        self._closed = False
        # several service dispatcher threads may share one backend; the
        # lock guards the idle pool (each run_tasks call's busy set is
        # call-local, so the batches themselves are independent)
        self._pool_lock = threading.Lock()

    # -- pool plumbing -------------------------------------------------

    def _spawn(self) -> PipeWorker:
        return spawn_pipe_worker(self._ctx, _worker_loop)

    def _retire(self, worker: PipeWorker) -> None:
        retire_pipe_worker(worker)

    def _checkout(self) -> PipeWorker:
        """An idle warm worker, or a fresh one."""
        while True:
            with self._pool_lock:
                worker = self._idle.pop() if self._idle else None
            if worker is None:
                return self._spawn()
            if worker.process.is_alive():
                return worker
            self._retire(worker)  # died while idle

    def _checkin(self, worker: PipeWorker) -> None:
        worker.task = None
        with self._pool_lock:
            keep = len(self._idle) < self.jobs and not self._closed
            if keep:
                self._idle.append(worker)
        if not keep:
            self._retire(worker)

    def _effective_timeout(self, task: TaskSpec,
                           override: Optional[float]) -> Optional[float]:
        if override is not None:
            return override
        if task.timeout is not None:
            return task.timeout
        return self.timeout

    # -- execution -----------------------------------------------------

    def run_tasks(
        self,
        batch: Sequence[Tuple[int, TaskSpec]],
        *,
        timeout: Optional[float] = None,
        on_result: OnResult = None,
    ) -> List[Tuple[int, RunResult]]:
        if self._closed:
            raise RuntimeError("backend is closed")
        pending = list(reversed(list(batch)))
        busy: Dict[int, PipeWorker] = {}  # batch key -> worker
        produced: List[Tuple[int, RunResult]] = []
        slots = min(self.jobs, len(pending))

        def emit(key: int, result: RunResult) -> None:
            produced.append((key, result))
            if on_result:
                on_result(result)

        try:
            while pending or busy:
                while pending and len(busy) < slots:
                    key, task = pending.pop()
                    worker = self._checkout()
                    worker.task = task
                    worker.started = time.monotonic()
                    try:
                        worker.conn.send(task.to_dict())
                    except (BrokenPipeError, OSError):
                        # worker died while idle: drop it, re-queue the task
                        self._retire(worker)
                        pending.append((key, task))
                        continue
                    busy[key] = worker

                conns = [w.conn for w in busy.values()]
                ready = multiprocessing.connection.wait(conns, timeout=0.05)
                for key in list(busy):
                    worker = busy[key]
                    if worker.conn not in ready:
                        continue
                    task = worker.task
                    try:
                        payload = worker.conn.recv()
                    except (EOFError, OSError):
                        # worker died mid-task (segfault/OOM): replace it
                        del busy[key]
                        self._retire(worker)
                        emit(key, _failure_result(
                            task, RunStatus.ERROR, "worker process died",
                            time.monotonic() - worker.started))
                        continue
                    del busy[key]
                    self._checkin(worker)
                    if "__worker_error__" in payload:
                        emit(key, _failure_result(
                            task, RunStatus.ERROR, payload["__worker_error__"],
                            time.monotonic() - worker.started))
                    else:
                        emit(key, RunResult.from_dict(payload))

                now = time.monotonic()
                for key in list(busy):
                    worker = busy[key]
                    limit = self._effective_timeout(worker.task, timeout)
                    if limit is not None and now - worker.started > limit:
                        del busy[key]
                        task = worker.task
                        self._retire(worker)
                        emit(key, _failure_result(
                            task, RunStatus.TIMEOUT,
                            f"exceeded {limit}s", now - worker.started))
        except BaseException:
            # unwind cleanly on cancellation/KeyboardInterrupt: busy
            # workers hold unread results, so they cannot be reused
            for worker in busy.values():
                self._retire(worker)
            raise
        return produced

    def close(self) -> None:
        with self._pool_lock:
            if self._closed:
                return
            self._closed = True
        for worker in self._idle:
            try:
                worker.conn.send(None)
            except (OSError, BrokenPipeError):
                pass
        for worker in self._idle:
            worker.process.join(timeout=2)
            if worker.process.is_alive():
                worker.process.terminate()
            try:
                worker.conn.close()
            except OSError:
                pass
        self._idle.clear()


def backend_for_jobs(jobs: int, *, timeout: Optional[float] = None) -> ExecutionBackend:
    """The PR 1 convention: ``jobs=0`` inline, ``jobs>=1`` a process pool."""
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return InlineBackend()
    return MultiprocessingBackend(jobs, timeout=timeout)
