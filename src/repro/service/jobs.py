"""The service job queue: coalescing, batching, backend dispatch.

Three amortization layers between an HTTP request and the solvers (the
same amortize-the-memory-bound-work idiom DaPPA applies to PIM
workloads — many small queries share one pass over the heavy machinery):

1. **store hit** — a query whose content hash is in the persistent
   result store is answered on the event loop, never touching a worker;
2. **coalescing** — concurrent queries for the *same* cell (same
   content hash) share one in-flight computation: the first request
   enqueues a job, the rest await its future.  The cell is computed —
   and stored — exactly once;
3. **batching** — distinct pending cells are drained into one grid
   batch per dispatch and executed as a unit on the warm worker pool,
   so the per-batch dispatch overhead is shared.

Dispatch runs on a small thread pool (``dispatchers`` threads); each
batch occupies one thread while its workers grind, so one slow query
cannot head-of-line-block the whole service as long as a second
dispatcher is free.  Per-request timeouts and crash isolation come from
the backend (see :class:`~repro.experiments.MultiprocessingBackend`):
a timed-out or crashed worker yields a ``timeout``/``error`` record for
its cell and the other cells of the batch — and every other batch —
keep going.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..experiments import RunResult, TaskSpec
from ..experiments.backends import ExecutionBackend
from ..experiments.store import ResultStore

__all__ = ["JobQueue"]


@dataclass
class _Job:
    task: TaskSpec
    task_hash: str
    future: "asyncio.Future[RunResult]"
    waiters: int = 1


@dataclass
class QueueStats:
    """Monotonic counters surfaced by ``GET /v1/stats``."""

    requests: int = 0        # queries entering submit()
    cache_hits: int = 0      # answered straight from the store
    coalesced: int = 0       # attached to an already-pending cell
    executed: int = 0        # cells actually run on the backend
    batches: int = 0         # backend dispatches
    errors: int = 0          # cells finishing status=error
    timeouts: int = 0        # cells finishing status=timeout
    store_errors: int = 0    # store.put calls that raised
    failed_batches: int = 0  # backend dispatches that raised
    internal_errors: int = 0  # requests answered 500 (handler raised)
    largest_batch: int = 0

    def to_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


class JobQueue:
    """Coalesce and batch service queries onto an execution backend.

    Parameters
    ----------
    backend:
        Executes batches; owned by the caller (not closed here).
    store:
        Optional persistent result store consulted before queueing and
        updated after execution; owned by the caller.
    default_timeout:
        Per-task wall-clock budget applied to requests that name none.
    max_batch:
        Upper bound on cells per dispatched batch.
    dispatchers:
        Number of concurrent batch dispatch threads.
    """

    def __init__(
        self,
        backend: ExecutionBackend,
        store: Optional[ResultStore] = None,
        *,
        default_timeout: Optional[float] = None,
        max_batch: int = 64,
        dispatchers: int = 2,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if dispatchers < 1:
            raise ValueError(f"dispatchers must be >= 1, got {dispatchers}")
        self.backend = backend
        self.store = store
        self.default_timeout = default_timeout
        self.max_batch = max_batch
        self.stats = QueueStats()
        self._pending: Dict[str, _Job] = {}
        self._queue: "asyncio.Queue[_Job]" = asyncio.Queue()
        self._executor = ThreadPoolExecutor(
            max_workers=dispatchers, thread_name_prefix="pebble-dispatch"
        )
        self._dispatch_tasks: List["asyncio.Task"] = []
        self._n_dispatchers = dispatchers
        self._started = False
        self._closed = False

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Spawn the dispatcher tasks (must run inside the event loop)."""
        if self._started:
            return
        self._started = True
        loop = asyncio.get_running_loop()
        self._dispatch_tasks = [
            loop.create_task(self._dispatch_loop(), name=f"pebble-dispatch-{i}")
            for i in range(self._n_dispatchers)
        ]

    async def close(self) -> None:
        """Stop dispatchers and fail any still-pending futures."""
        self._closed = True
        for task in self._dispatch_tasks:
            task.cancel()
        for task in self._dispatch_tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._executor.shutdown(wait=False, cancel_futures=True)
        for job in list(self._pending.values()):
            if not job.future.done():
                job.future.set_exception(
                    RuntimeError("service shutting down")
                )
        self._pending.clear()

    # -- submission ----------------------------------------------------

    async def submit(self, task: TaskSpec) -> RunResult:
        """Answer one cell: store hit, coalesced wait, or queued work."""
        if self._closed:
            raise RuntimeError("job queue is closed")
        self.stats.requests += 1

        if self.store is not None:
            hit = self.store.get(task)
            if hit is not None:
                self.stats.cache_hits += 1
                return hit

        task_hash = task.content_hash()
        job = self._pending.get(task_hash)
        if job is not None:
            job.waiters += 1
            self.stats.coalesced += 1
            return await asyncio.shield(job.future)

        loop = asyncio.get_running_loop()
        if task.timeout is None and self.default_timeout is not None:
            task = TaskSpec.from_dict({**task.to_dict(), "timeout": self.default_timeout})
        job = _Job(task=task, task_hash=task_hash, future=loop.create_future())
        self._pending[task_hash] = job
        self._queue.put_nowait(job)
        return await asyncio.shield(job.future)

    # -- dispatch ------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job = await self._queue.get()
            batch = [job]
            while len(batch) < self.max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            self.stats.batches += 1
            self.stats.largest_batch = max(self.stats.largest_batch, len(batch))
            indexed = list(enumerate(b.task for b in batch))
            try:
                produced = await loop.run_in_executor(
                    self._executor,
                    lambda: self.backend.run_tasks(indexed),
                )
            except asyncio.CancelledError:
                for b in batch:
                    if not b.future.done():
                        b.future.cancel()
                    self._pending.pop(b.task_hash, None)
                raise
            except Exception as exc:
                self.stats.failed_batches += 1
                for b in batch:
                    self._pending.pop(b.task_hash, None)
                    if not b.future.done():
                        b.future.set_exception(exc)
                continue
            by_index = dict(produced)
            for i, b in enumerate(batch):
                result = by_index.get(i)
                self._pending.pop(b.task_hash, None)
                if result is None:  # backend contract violation
                    if not b.future.done():
                        b.future.set_exception(
                            RuntimeError("backend dropped a task")
                        )
                    continue
                self.stats.executed += 1
                if result.status.value == "error":
                    self.stats.errors += 1
                elif result.status.value == "timeout":
                    self.stats.timeouts += 1
                if self.store is not None:
                    try:
                        self.store.put(result)
                    except Exception:  # a broken store must not eat results
                        self.stats.store_errors += 1
                if not b.future.done():
                    b.future.set_result(result)
