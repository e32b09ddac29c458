"""Result stores: round-trips, eviction, version checking, accounting."""

import json
import sqlite3

import pytest

from repro._version import __version__
from repro.experiments import (
    JsonDirStore,
    MemoryResultStore,
    Runner,
    SQLiteResultStore,
    TaskSpec,
    execute_task,
    open_store,
)
from repro.experiments.store import STORE_SCHEMA_VERSION


def task_for(dag="chain:3", method="baseline", **kw):
    return TaskSpec(spec="t", dag=dag, model="oneshot", method=method,
                    red_limit="min", **kw)


def result_for(task):
    return execute_task(task)


@pytest.fixture(params=["memory", "jsondir", "sqlite-mem", "sqlite-file"])
def store(request, tmp_path):
    if request.param == "memory":
        s = MemoryResultStore()
    elif request.param == "jsondir":
        s = JsonDirStore(tmp_path / "cache")
    elif request.param == "sqlite-mem":
        s = SQLiteResultStore(":memory:")
    else:
        s = SQLiteResultStore(tmp_path / "store.sqlite")
    yield s
    s.close()


class TestRoundTrip:
    def test_miss_then_hit(self, store):
        task = task_for()
        assert store.get(task) is None
        store.put(result_for(task))
        hit = store.get(task)
        assert hit is not None
        assert hit.cached
        assert hit.cost == result_for(task).cost
        assert store.stats() == {"hits": 1, "misses": 1, "puts": 1}

    def test_hit_relabelled_for_asking_spec(self, store):
        task = task_for()
        store.put(result_for(task))
        other = TaskSpec(**{**task.to_dict(), "spec": "other"})
        assert store.get(other).spec == "other"

    def test_failures_never_stored(self, store):
        bad = task_for(method="warp-drive")
        store.put(result_for(bad))  # status=error: ignored
        assert store.get(bad) is None
        assert store.puts == 0

    def test_infeasible_is_cacheable(self, store):
        task = TaskSpec(spec="t", dag="pyramid:3", model="oneshot",
                        method="greedy", red_limit=1)
        store.put(result_for(task))
        assert store.get(task).status.value == "infeasible"


class TestSQLiteStore:
    def test_persists_across_connections(self, tmp_path):
        path = tmp_path / "s.sqlite"
        task = task_for()
        with SQLiteResultStore(path) as store:
            store.put(result_for(task))
        with SQLiteResultStore(path) as store:
            assert store.get(task) is not None

    def test_lru_eviction(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "s.sqlite", max_rows=2)
        tasks = [task_for(dag=f"chain:{n}") for n in (2, 3, 4)]
        store.put(result_for(tasks[0]))
        store.put(result_for(tasks[1]))
        assert store.get(tasks[0]) is not None  # refresh 0: 1 becomes LRU
        store.put(result_for(tasks[2]))         # evicts 1
        assert len(store) == 2
        assert store.get(tasks[1]) is None
        assert store.get(tasks[0]) is not None
        assert store.get(tasks[2]) is not None
        store.close()

    def test_hit_on_unbounded_store_writes_nothing(self, tmp_path):
        # recency only feeds max_rows eviction, so without a bound a hit
        # must not update last_used (or commit)
        store = SQLiteResultStore(tmp_path / "s.sqlite")
        task = task_for()
        store.put(result_for(task))
        before = store._conn.total_changes
        assert store.get(task) is not None
        assert store._conn.total_changes == before
        store.close()

    def test_stale_version_row_not_served(self, tmp_path):
        """A row written by an older repro version is never served fresh."""
        path = tmp_path / "s.sqlite"
        task = task_for()
        store = SQLiteResultStore(path)
        store.put(result_for(task))
        # simulate an old-kernel store: rewrite the version column in place
        with sqlite3.connect(path) as conn:
            conn.execute("UPDATE results SET repro_version = '0.0.1'")
        assert store.get(task) is None
        store.close()
        # check_version=False opts back in (forensics / read-only tooling)
        with SQLiteResultStore(path, check_version=False) as trusting:
            assert trusting.get(task) is not None

    def test_schema_version_mismatch_drops_table(self, tmp_path):
        path = tmp_path / "s.sqlite"
        task = task_for()
        with SQLiteResultStore(path) as store:
            store.put(result_for(task))
        with sqlite3.connect(path) as conn:
            conn.execute(
                "UPDATE store_meta SET value = ? WHERE key = 'schema_version'",
                (str(STORE_SCHEMA_VERSION + 1),),
            )
        with SQLiteResultStore(path) as store:  # rebuilt: cache dropped, usable
            assert store.get(task) is None
            store.put(result_for(task))
            assert store.get(task) is not None

    def test_corrupt_payload_is_a_miss(self, tmp_path):
        path = tmp_path / "s.sqlite"
        task = task_for()
        store = SQLiteResultStore(path)
        store.put(result_for(task))
        with sqlite3.connect(path) as conn:
            conn.execute("UPDATE results SET payload = '{ not json'")
        assert store.get(task) is None
        store.close()

    def test_current_version_recorded(self, tmp_path):
        path = tmp_path / "s.sqlite"
        with SQLiteResultStore(path) as store:
            store.put(result_for(task_for()))
        with sqlite3.connect(path) as conn:
            (version,) = conn.execute(
                "SELECT repro_version FROM results"
            ).fetchone()
        assert version == __version__


class TestContentHashVersioning:
    def test_hash_depends_on_package_version(self, monkeypatch):
        task = task_for()
        before = task.content_hash()
        monkeypatch.setattr("repro.experiments.spec.__version__", "99.0.0")
        assert task.content_hash() != before

    def test_runner_ignores_other_version_cache(self, tmp_path, monkeypatch):
        """End to end: a cache dir written under another version misses."""
        spec_tasks = [task_for()]
        Runner(jobs=0, cache_dir=tmp_path).run(spec_tasks)
        monkeypatch.setattr("repro.experiments.spec.__version__", "99.0.0")
        results = Runner(jobs=0, cache_dir=tmp_path).run(spec_tasks)
        assert not results[0].cached


class TestOpenStore:
    def test_none(self):
        assert open_store(None) is None
        assert open_store("none") is None

    def test_memory(self):
        assert isinstance(open_store("memory"), MemoryResultStore)

    def test_sqlite_by_suffix(self, tmp_path):
        store = open_store(str(tmp_path / "x.sqlite"))
        assert isinstance(store, SQLiteResultStore)
        store.close()

    def test_sqlite_by_prefix(self, tmp_path):
        store = open_store("sqlite:" + str(tmp_path / "plain"))
        assert isinstance(store, SQLiteResultStore)
        store.close()

    def test_directory_fallback(self, tmp_path):
        assert isinstance(open_store(str(tmp_path / "cachedir")), JsonDirStore)


class TestRunnerStoreIntegration:
    def test_runner_with_sqlite_store(self, tmp_path):
        store = SQLiteResultStore(tmp_path / "s.sqlite")
        tasks = [task_for(dag="chain:4"), task_for(dag="chain:5")]
        first = Runner(jobs=0, store=store).run(tasks)
        assert not any(r.cached for r in first)
        second = Runner(jobs=0, store=store).run(tasks)
        assert all(r.cached for r in second)
        assert [r.cost for r in first] == [r.cost for r in second]
        store.close()

    def test_json_dir_format_unchanged(self, tmp_path):
        """cache_dir keeps the PR 1 <hash>.json file layout."""
        task = task_for()
        Runner(jobs=0, cache_dir=tmp_path).run([task])
        path = tmp_path / (task.content_hash() + ".json")
        assert path.exists()
        assert json.loads(path.read_text())["dag"] == task.dag
