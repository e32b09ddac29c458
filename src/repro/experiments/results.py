"""Typed result records produced by the experiment runner.

A :class:`RunResult` is one cell of an experiment grid: the outcome of
running one *method* on one *(dag, model, R)* instance.  Records are
plain data — costs are stored as exact :class:`fractions.Fraction`
strings so JSON/CSV round-trips lose nothing — and
:mod:`repro.io.serialization` provides the JSON/CSV codecs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, Mapping, Optional

__all__ = ["RunStatus", "RunResult"]


class RunStatus(str, enum.Enum):
    """Terminal state of one experiment task."""

    OK = "ok"
    TIMEOUT = "timeout"
    ERROR = "error"
    INFEASIBLE = "infeasible"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class RunResult:
    """Outcome of one experiment task.

    Attributes
    ----------
    spec:
        Name of the :class:`~repro.experiments.ExperimentSpec` the task
        came from.
    dag / model / method:
        The grid coordinates: DAG spec string, model name, method name.
    red_limit:
        The *resolved* red-pebble budget R (``"min+1"`` specs are
        resolved against the concrete DAG before recording).
    cost:
        Pebbling cost as an exact ``Fraction`` string, or None when the
        task did not finish (timeout/error/infeasible).
    n_moves:
        Length of the schedule the method produced, when it reports one.
    status:
        ``ok`` / ``timeout`` / ``error`` / ``infeasible``.
    wall_time:
        Seconds the task took (the timeout value for timed-out tasks).
    cached:
        True when the record was served from the runner's result cache.
    task_hash:
        Content hash of the task (the cache key).
    error:
        Exception summary for ``error`` records.
    extra:
        Method-specific extras (reference bounds, search statistics, ...)
        as a flat str->str mapping.
    """

    spec: str
    dag: str
    model: str
    method: str
    red_limit: Optional[int]
    cost: Optional[str] = None
    n_moves: Optional[int] = None
    status: RunStatus = RunStatus.OK
    wall_time: float = 0.0
    cached: bool = False
    task_hash: str = ""
    error: Optional[str] = None
    extra: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "status", RunStatus(self.status))

    @property
    def ok(self) -> bool:
        return self.status is RunStatus.OK

    @property
    def cost_fraction(self) -> Optional[Fraction]:
        """The cost as an exact :class:`Fraction` (None when unfinished)."""
        return Fraction(self.cost) if self.cost is not None else None

    def key(self) -> "tuple[str, str, str, Optional[int]]":
        """Grid coordinates (dag, model, method, R) — join key for compares."""
        return (self.dag, self.model, self.method, self.red_limit)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec,
            "dag": self.dag,
            "model": self.model,
            "method": self.method,
            "red_limit": self.red_limit,
            "cost": self.cost,
            "n_moves": self.n_moves,
            "status": self.status.value,
            "wall_time": self.wall_time,
            "cached": self.cached,
            "task_hash": self.task_hash,
            "error": self.error,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunResult":
        return cls(
            spec=payload["spec"],
            dag=payload["dag"],
            model=payload["model"],
            method=payload["method"],
            red_limit=payload.get("red_limit"),
            cost=payload.get("cost"),
            n_moves=payload.get("n_moves"),
            status=RunStatus(payload.get("status", "ok")),
            wall_time=float(payload.get("wall_time", 0.0)),
            cached=bool(payload.get("cached", False)),
            task_hash=payload.get("task_hash", ""),
            error=payload.get("error"),
            extra=dict(payload.get("extra") or {}),
        )
