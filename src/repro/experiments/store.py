"""Persistent result stores: the Runner's cache as a first-class layer.

A *store* maps a task's content hash (:meth:`TaskSpec.content_hash`) to
its finished :class:`~repro.experiments.RunResult`.  PR 1 kept this as a
directory of JSON files inside the :class:`~repro.experiments.Runner`;
the service layer needs the same cache shared by many concurrent
requests with real durability, so the cache is now its own abstraction
with three implementations:

* :class:`MemoryResultStore` — a dict; tests and one-shot scripts;
* :class:`JsonDirStore` — the PR 1 on-disk format (``<hash>.json`` files),
  kept so existing ``results/cache`` directories and the ``--cache-dir``
  CLI flag keep working unchanged;
* :class:`SQLiteResultStore` — one ``sqlite3`` file, safe for concurrent
  readers, with LRU eviction (``max_rows``) and a schema/package-version
  column: rows written by a *different repro version* are never served
  (a stale store from an older kernel silently recomputes instead).

Every store counts ``hits`` / ``misses`` / ``puts`` so the service can
report its cache hit rate.

Only terminal results worth replaying are stored: ``ok`` and
``infeasible``.  Timeouts and errors always recompute.

Examples
--------
Round-trip through an in-memory SQLite store:

>>> from repro.experiments import TaskSpec, execute_task
>>> from repro.experiments.store import SQLiteResultStore
>>> store = SQLiteResultStore(":memory:")
>>> task = TaskSpec(spec="doc", dag="chain:3", model="oneshot",
...                 method="baseline", red_limit="min")
>>> store.get(task) is None        # cold
True
>>> store.put(execute_task(task))
>>> store.get(task).cost           # warm: exact Fraction string
'7'
>>> store.get(task).cached
True
>>> (store.hits, store.misses, store.puts)
(2, 1, 1)
>>> store.close()
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from dataclasses import replace
from typing import Dict, Optional, Union

from .._version import __version__
from .results import RunResult, RunStatus
from .spec import TaskSpec

__all__ = [
    "ResultStore",
    "MemoryResultStore",
    "JsonDirStore",
    "SQLiteResultStore",
    "open_store",
    "STORE_SCHEMA_VERSION",
]

#: bump when the sqlite table layout changes (table is rebuilt on mismatch)
STORE_SCHEMA_VERSION = 1

#: cacheable terminal states — timeouts/errors are retried on the next run
CACHEABLE_STATUSES = (RunStatus.OK, RunStatus.INFEASIBLE)


class ResultStore:
    """Base class: content-hash keyed persistence for finished results.

    Subclasses implement :meth:`_load` / :meth:`_save`; the base class
    handles hit/miss accounting, the cacheable-status filter, and the
    ``cached=True`` / spec-relabel bookkeeping every caller needs.
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.puts = 0

    # subclass surface ------------------------------------------------

    def _load(self, task_hash: str) -> Optional[RunResult]:
        raise NotImplementedError

    def _save(self, result: RunResult) -> None:
        raise NotImplementedError

    # public API ------------------------------------------------------

    def get(self, task: TaskSpec) -> Optional[RunResult]:
        """The cached result for ``task``, relabelled for the asking spec,
        or None on a miss."""
        found = self._load(task.content_hash())
        if found is None:
            self.misses += 1
            return None
        self.hits += 1
        return replace(found, spec=task.spec, cached=True)

    def put(self, result: RunResult) -> None:
        """Store a finished result (non-cacheable statuses are ignored)."""
        if result.status not in CACHEABLE_STATUSES or not result.task_hash:
            return
        self.puts += 1
        self._save(result)

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "puts": self.puts}

    def close(self) -> None:  # pragma: no cover - trivial default
        pass

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class MemoryResultStore(ResultStore):
    """Process-local dict store (no persistence)."""

    def __init__(self) -> None:
        super().__init__()
        self._data: Dict[str, RunResult] = {}

    def _load(self, task_hash: str) -> Optional[RunResult]:
        return self._data.get(task_hash)

    def _save(self, result: RunResult) -> None:
        self._data[result.task_hash] = result

    def __len__(self) -> int:
        return len(self._data)


class JsonDirStore(ResultStore):
    """The PR 1 on-disk cache format: one ``<hash>.json`` file per result.

    Kept byte-compatible so existing cache directories (and tests that
    poke at them) keep working; new deployments should prefer
    :class:`SQLiteResultStore`.
    """

    def __init__(self, directory: Union[str, os.PathLike]) -> None:
        super().__init__()
        self.directory = os.fspath(directory)

    def _path(self, task_hash: str) -> str:
        return os.path.join(self.directory, task_hash + ".json")

    def _load(self, task_hash: str) -> Optional[RunResult]:
        path = self._path(task_hash)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return RunResult.from_dict(json.load(fh))
        except (OSError, ValueError, KeyError):
            return None  # unreadable entry: recompute and overwrite

    def _save(self, result: RunResult) -> None:
        os.makedirs(self.directory, exist_ok=True)
        path = self._path(result.task_hash)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(result.to_dict(), fh)
        os.replace(tmp, path)


class SQLiteResultStore(ResultStore):
    """Durable store over one ``sqlite3`` file.

    Parameters
    ----------
    path:
        Database file (parent directories are created), or ``":memory:"``.
    max_rows:
        Optional LRU bound: when an insert pushes the row count above
        this, the least-recently-*used* rows are evicted.  Recency is
        tracked only when this is set; an unbounded store writes
        nothing on a read.
    check_version:
        When True (default), rows whose ``repro_version`` column differs
        from the running package's version are treated as misses — a
        stale on-disk store from an older kernel is never served as
        fresh.  (Since PR 6 the content hash itself also encodes the
        version, so this is defence in depth for hand-built rows.)

    The connection is shared across threads behind a lock, which is how
    the asyncio service's executor threads use one store safely.
    """

    def __init__(
        self,
        path: Union[str, os.PathLike] = ":memory:",
        *,
        max_rows: Optional[int] = None,
        check_version: bool = True,
    ) -> None:
        super().__init__()
        self.path = os.fspath(path)
        self.max_rows = max_rows
        self.check_version = check_version
        if self.path != ":memory:":
            parent = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(parent, exist_ok=True)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._init_schema()

    def _init_schema(self) -> None:
        with self._lock, self._conn:
            row = self._conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table' AND name='results'"
            ).fetchone()
            if row is not None:
                cols = {
                    r[1]
                    for r in self._conn.execute("PRAGMA table_info(results)")
                }
                meta = self._conn.execute(
                    "SELECT value FROM store_meta WHERE key='schema_version'"
                ).fetchone() if self._has_meta() else None
                current = int(meta[0]) if meta else -1
                if current != STORE_SCHEMA_VERSION or "repro_version" not in cols:
                    # incompatible layout: a cache is always safe to drop
                    self._conn.execute("DROP TABLE IF EXISTS results")
                    self._conn.execute("DROP TABLE IF EXISTS store_meta")
            self._conn.execute(
                """
                CREATE TABLE IF NOT EXISTS results (
                    task_hash     TEXT PRIMARY KEY,
                    repro_version TEXT NOT NULL,
                    created       REAL NOT NULL,
                    last_used     REAL NOT NULL,
                    payload       TEXT NOT NULL
                )
                """
            )
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS store_meta (key TEXT PRIMARY KEY, value TEXT)"
            )
            self._conn.execute(
                "INSERT OR REPLACE INTO store_meta VALUES ('schema_version', ?)",
                (str(STORE_SCHEMA_VERSION),),
            )

    def _has_meta(self) -> bool:
        return (
            self._conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table' AND name='store_meta'"
            ).fetchone()
            is not None
        )

    def _load(self, task_hash: str) -> Optional[RunResult]:
        with self._lock:
            row = self._conn.execute(
                "SELECT payload, repro_version FROM results WHERE task_hash = ?",
                (task_hash,),
            ).fetchone()
            if row is None:
                return None
            payload, version = row
            if self.check_version and version != __version__:
                return None  # written by a different kernel: recompute
            if self.max_rows is not None:
                self._conn.execute(
                    "UPDATE results SET last_used = ? WHERE task_hash = ?",
                    (time.time(), task_hash),
                )
                self._conn.commit()
        try:
            return RunResult.from_dict(json.loads(payload))
        except (ValueError, KeyError):
            return None

    def _save(self, result: RunResult) -> None:
        now = time.time()
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO results VALUES (?, ?, ?, ?, ?)",
                (
                    result.task_hash,
                    __version__,
                    now,
                    now,
                    json.dumps(result.to_dict()),
                ),
            )
            if self.max_rows is not None:
                (count,) = self._conn.execute(
                    "SELECT COUNT(*) FROM results"
                ).fetchone()
                excess = count - self.max_rows
                if excess > 0:
                    self._conn.execute(
                        """
                        DELETE FROM results WHERE task_hash IN (
                            SELECT task_hash FROM results
                            ORDER BY last_used ASC LIMIT ?
                        )
                        """,
                        (excess,),
                    )

    def __len__(self) -> int:
        with self._lock:
            (count,) = self._conn.execute("SELECT COUNT(*) FROM results").fetchone()
        return count

    def close(self) -> None:
        with self._lock:
            self._conn.close()


def open_store(spec: Optional[str]) -> Optional[ResultStore]:
    """Build a store from a CLI-ish string spec.

    ``None`` / ``"none"`` → no store, ``"memory"`` → dict store,
    ``*.sqlite`` / ``*.db`` / ``sqlite:PATH`` → sqlite, anything else →
    a :class:`JsonDirStore` on that directory.
    """
    if spec is None or spec == "none":
        return None
    if spec == "memory":
        return MemoryResultStore()
    if spec.startswith("sqlite:"):
        return SQLiteResultStore(spec[len("sqlite:"):])
    if spec.endswith((".sqlite", ".sqlite3", ".db")):
        return SQLiteResultStore(spec)
    return JsonDirStore(spec)
