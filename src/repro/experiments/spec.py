"""Declarative experiment grids.

An :class:`ExperimentSpec` names a cartesian product

    DAGs  x  models  x  methods  x  red-pebble budgets

plus per-task settings (epsilon, timeout).  :meth:`ExperimentSpec.tasks`
expands it into concrete :class:`TaskSpec` records, which is all the
:class:`~repro.experiments.Runner` consumes — a spec never holds live
objects, so it can be hashed, cached, pickled to workers, and printed.

Red-limit specs
---------------
Each entry of ``red_limits`` is either an absolute int or a string
``"min"`` / ``"min+K"``, resolved against the concrete DAG's feasibility
frontier ``Delta + 1`` when the task runs.  A DAG entry may also pin its
own budget with a ``#rK`` suffix (``"matmul:3#r5"``), which overrides
the spec-level sweep for that DAG — this keeps per-workload memory
pressure expressible inside one grid.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .._version import __version__

__all__ = ["ExperimentSpec", "TaskSpec", "resolve_red_limit"]

RedSpec = Union[int, str]

#: bump to invalidate cached results when task semantics change without a
#: package-version bump (the version is hashed too, see content_hash)
CACHE_VERSION = 1


def resolve_red_limit(red: RedSpec, min_red: int) -> int:
    """Resolve a red-limit spec against a DAG's minimum feasible R."""
    if isinstance(red, int):
        return red
    text = str(red).strip()
    if text == "min":
        return min_red
    if text.startswith("min+"):
        return min_red + int(text[4:])
    return int(text)


def split_dag_entry(entry: str) -> "tuple[str, Optional[RedSpec]]":
    """Split a dag grid entry into (dag spec, pinned red limit or None)."""
    dag, sep, pin = entry.partition("#r")
    if not sep:
        return entry, None
    return dag, (int(pin) if pin.lstrip("+-").isdigit() else pin)


@dataclass(frozen=True)
class TaskSpec:
    """One concrete cell of an experiment grid (picklable, hashable)."""

    spec: str
    dag: str
    model: str
    method: str
    red_limit: RedSpec
    epsilon: str = "1/100"
    timeout: Optional[float] = None

    def content_hash(self) -> str:
        """Cache key: hashes everything that determines the *result*.

        The spec name and timeout are excluded — the same cell reached
        from two specs (or with a different patience) has the same
        outcome.  ``@file.json`` DAG specs hash the file *contents*, so
        editing the file invalidates cached cells.  The repro package
        version is hashed in, so a persistent store written by an older
        kernel (different solver semantics, different extras) is never
        served as fresh after an upgrade.
        """
        payload = {
            "v": CACHE_VERSION,
            "repro": __version__,
            "dag": self.dag,
            "model": self.model,
            "method": self.method,
            "red_limit": str(self.red_limit),
            "epsilon": self.epsilon,
        }
        if self.dag.startswith("@"):
            try:
                with open(self.dag[1:], "rb") as fh:
                    payload["dag_bytes"] = hashlib.sha256(fh.read()).hexdigest()
            except OSError:
                payload["dag_bytes"] = "unreadable"  # the task will error anyway
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:24]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec,
            "dag": self.dag,
            "model": self.model,
            "method": self.method,
            "red_limit": self.red_limit,
            "epsilon": self.epsilon,
            "timeout": self.timeout,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TaskSpec":
        return cls(**dict(payload))


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative experiment: the grid plus bookkeeping metadata.

    Parameters
    ----------
    name / description:
        Registry key and one-line summary (shown by ``bench list``).
    dags:
        DAG spec strings (:mod:`repro.generators.specs` grammar), each
        optionally pinned to its own R with a ``#rK`` suffix.
    models:
        Model names (``base`` / ``oneshot`` / ``nodel`` / ``compcost``).
    methods:
        Method names resolved by :mod:`repro.experiments.methods`.
    red_limits:
        Spec-level R sweep applied to every unpinned DAG.
    cells:
        Explicit extra cells appended after the cartesian grid, each a
        ``(dag, model, method, red_limit)`` tuple.  This is how a spec
        mixes method families that only apply to some of its DAGs (e.g.
        the ``hardness-smoke`` spec pairing ``vc:*`` methods with
        ``vc:...`` DAGs next to a ``hampath:*`` grid).
    epsilon:
        Compute cost for compcost instances, as an exact fraction string.
    timeout:
        Per-task wall-clock budget in seconds (enforced by parallel
        runners; None = unlimited).
    tags:
        Free-form labels (``bench list`` filters on them).
    """

    name: str
    description: str = ""
    dags: Tuple[str, ...] = ()
    models: Tuple[str, ...] = ("oneshot",)
    methods: Tuple[str, ...] = ("baseline",)
    red_limits: Tuple[RedSpec, ...] = ("min",)
    cells: Tuple[Tuple[str, str, str, RedSpec], ...] = ()
    epsilon: str = "1/100"
    timeout: Optional[float] = None
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for fname in ("dags", "models", "methods", "red_limits", "tags"):
            value = getattr(self, fname)
            if not isinstance(value, tuple):
                object.__setattr__(self, fname, tuple(value))
        if not isinstance(self.cells, tuple):
            object.__setattr__(self, "cells", tuple(tuple(c) for c in self.cells))
        for cell in self.cells:
            if len(cell) != 4:
                raise ValueError(
                    f"spec {self.name!r}: cells need (dag, model, method, red), "
                    f"got {cell!r}"
                )
        if not self.name:
            raise ValueError("ExperimentSpec needs a non-empty name")
        if not self.dags and not self.cells:
            raise ValueError(f"spec {self.name!r} has no DAGs")

    @property
    def n_tasks(self) -> int:
        return len(self.tasks())

    def tasks(self) -> List[TaskSpec]:
        """Expand the grid into concrete tasks (deterministic order)."""
        out: List[TaskSpec] = []
        for entry in self.dags:
            dag, pinned = split_dag_entry(entry)
            reds: Sequence[RedSpec] = (pinned,) if pinned is not None else self.red_limits
            for model in self.models:
                for method in self.methods:
                    for red in reds:
                        out.append(
                            TaskSpec(
                                spec=self.name,
                                dag=dag,
                                model=model,
                                method=method,
                                red_limit=red,
                                epsilon=self.epsilon,
                                timeout=self.timeout,
                            )
                        )
        for dag, model, method, red in self.cells:
            out.append(
                TaskSpec(
                    spec=self.name,
                    dag=dag,
                    model=model,
                    method=method,
                    red_limit=red,
                    epsilon=self.epsilon,
                    timeout=self.timeout,
                )
            )
        return out

    def describe(self) -> str:
        """One-line summary used by ``bench list``."""
        return (
            f"{self.name}: {len(self.dags)} dag(s) x {len(self.models)} model(s) "
            f"x {len(self.methods)} method(s) -> {self.n_tasks} tasks"
        )
