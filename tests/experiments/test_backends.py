"""Execution backends: inline/pool equivalence, persistence, isolation."""

import multiprocessing
import os
import sys
import threading

import pytest

from repro.experiments import (
    InlineBackend,
    MultiprocessingBackend,
    TaskSpec,
    backend_for_jobs,
)
from repro.experiments.backends import retire_pipe_worker, spawn_pipe_worker


def task_for(dag="chain:3", method="baseline", **kw):
    return TaskSpec(spec="t", dag=dag, model="oneshot", method=method,
                    red_limit="min", **kw)


@pytest.fixture(scope="module")
def pool():
    backend = MultiprocessingBackend(jobs=2)
    yield backend
    backend.close()


class TestInlineBackend:
    def test_results_keyed_and_ordered(self):
        batch = [(10, task_for(dag="chain:3")), (20, task_for(dag="chain:4"))]
        produced = InlineBackend().run_tasks(batch)
        assert [key for key, _ in produced] == [10, 20]
        assert all(r.ok for _, r in produced)

    def test_on_result_callback(self):
        seen = []
        InlineBackend().run_tasks([(0, task_for())], on_result=seen.append)
        assert len(seen) == 1 and seen[0].ok

    def test_does_not_enforce_timeouts(self):
        assert not InlineBackend().enforces_timeouts


class TestMultiprocessingBackend:
    def test_matches_inline_results(self, pool):
        batch = [(i, task_for(dag=f"chain:{n}"))
                 for i, n in enumerate((2, 3, 4, 5))]
        inline = dict(InlineBackend().run_tasks(batch))
        pooled = dict(pool.run_tasks(batch))
        assert set(pooled) == set(inline)
        for key in inline:
            assert pooled[key].cost == inline[key].cost
            assert pooled[key].status == inline[key].status

    def test_workers_stay_warm_between_batches(self, pool):
        pool.run_tasks([(0, task_for())])
        pids_before = {w.process.pid for w in pool._idle}
        assert pids_before
        pool.run_tasks([(0, task_for(dag="chain:4"))])
        assert {w.process.pid for w in pool._idle} & pids_before

    def test_timeout_produces_timeout_record(self, pool):
        (key, result), = pool.run_tasks(
            [(0, task_for(method="sleep:30"))], timeout=0.3
        )
        assert result.status.value == "timeout"
        assert "0.3" in result.error

    def test_task_level_timeout(self, pool):
        (_, result), = pool.run_tasks(
            [(0, task_for(method="sleep:30", timeout=0.3))]
        )
        assert result.status.value == "timeout"

    def test_call_override_beats_task_timeout(self, pool):
        # generous task timeout, tight call override: override wins
        (_, result), = pool.run_tasks(
            [(0, task_for(method="sleep:30", timeout=60))], timeout=0.3
        )
        assert result.status.value == "timeout"

    def test_crash_isolated_from_batch(self, pool):
        batch = [(0, task_for(method="crash")),
                 (1, task_for(dag="chain:4")),
                 (2, task_for(dag="chain:5"))]
        produced = dict(pool.run_tasks(batch))
        assert len(produced) == 3
        assert produced[0].status.value == "error"
        assert "worker process died" in produced[0].error
        assert produced[1].ok and produced[2].ok

    def test_pool_usable_after_crash(self, pool):
        pool.run_tasks([(0, task_for(method="crash"))])
        (_, result), = pool.run_tasks([(0, task_for())])
        assert result.ok

    def test_method_exception_is_error_not_crash(self, pool):
        (_, result), = pool.run_tasks([(0, task_for(dag="no-such-dag:3"))])
        assert result.status.value == "error"
        assert "worker process died" not in (result.error or "")

    def test_shared_across_threads(self, pool):
        """Two dispatcher threads can drive one backend concurrently."""
        outputs = {}

        def drive(name, n):
            outputs[name] = pool.run_tasks(
                [(i, task_for(dag=f"chain:{n + i}")) for i in range(3)]
            )

        threads = [threading.Thread(target=drive, args=(t, n))
                   for t, n in (("a", 2), ("b", 6))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for name in ("a", "b"):
            assert len(outputs[name]) == 3
            assert all(r.ok for _, r in outputs[name])

    def test_closed_backend_rejects_work(self):
        backend = MultiprocessingBackend(jobs=1)
        backend.close()
        with pytest.raises(RuntimeError):
            backend.run_tasks([(0, task_for())])

    def test_close_is_idempotent(self):
        backend = MultiprocessingBackend(jobs=1)
        backend.run_tasks([(0, task_for())])
        backend.close()
        backend.close()

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            MultiprocessingBackend(jobs=0)


def _block(conn):
    """Worker stand-in: wait on the pipe until terminated."""
    try:
        conn.recv()
    except EOFError:
        pass


def _pipes_open_for_writing(pid):
    """``pipe:[inode]`` names of the pipes ``pid`` holds open for writing."""
    pipes = set()
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            target = os.readlink(f"/proc/{pid}/fd/{fd}")
            with open(f"/proc/{pid}/fdinfo/{fd}") as fh:
                flags = next(int(line.split()[1], 8) for line in fh
                             if line.startswith("flags:"))
        except FileNotFoundError:
            continue  # closed while we looked
        if target.startswith("pipe:") and flags & os.O_ACCMODE != os.O_RDONLY:
            pipes.add(target)
    return pipes


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the fd tables under /proc")
def test_concurrent_spawns_leak_no_sentinel_write_ends():
    """A worker forked during another thread's spawn must not inherit
    that worker's sentinel write end: while any sibling holds it, the
    sentinel never signals the death, and retirement's join times out."""
    ctx = multiprocessing.get_context()

    def spawn(barrier, mine):
        barrier.wait()
        for _ in range(4):
            mine.append(spawn_pipe_worker(ctx, _block))

    for _ in range(3):
        barrier = threading.Barrier(2)
        spawned = [[], []]
        threads = [threading.Thread(target=spawn, args=(barrier, mine))
                   for mine in spawned]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        workers = spawned[0] + spawned[1]
        try:
            assert not any(t.is_alive() for t in threads)
            sentinels = {
                w.process.pid: f"pipe:[{os.fstat(w.process.sentinel).st_ino}]"
                for w in workers
            }
            held = {pid: _pipes_open_for_writing(pid) for pid in sentinels}
            holders = [
                (pid, owner)
                for pid, pipes in held.items()
                for owner, pipe in sentinels.items()
                if owner != pid and pipe in pipes
            ]
        finally:
            for w in workers:
                retire_pipe_worker(w)
        assert holders == []
        assert not any(w.process.is_alive() for w in workers)


class TestBackendForJobs:
    def test_zero_is_inline(self):
        assert isinstance(backend_for_jobs(0), InlineBackend)

    def test_positive_is_pool(self):
        backend = backend_for_jobs(2, timeout=5.0)
        assert isinstance(backend, MultiprocessingBackend)
        assert backend.jobs == 2 and backend.timeout == 5.0
        backend.close()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            backend_for_jobs(-1)
