"""Spans around the benchmark's calls into each layer of the package.

A span records its name, start, end, parent span and op id.  Spans are
kept in memory and written out once, when the run ends.  Untraced runs
use :data:`OFF`, whose ``span`` is a shared no-op, so end-to-end
timings carry no tracing cost beyond one method call per layer call.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Dict, List, Optional


class _NoSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_NO_SPAN = _NoSpan()


class _Off:
    def span(self, name: str) -> _NoSpan:
        return _NO_SPAN


OFF = _Off()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.index = -1

    def __enter__(self) -> None:
        t = self.tracer
        parent = t.stack[-1] if t.stack else -1
        self.index = len(t.spans)
        t.spans.append([self.name, time.perf_counter_ns(), 0, parent, t.op])
        t.stack.append(self.index)

    def __exit__(self, *exc: object) -> None:
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter_ns()
        t.stack.pop()


class Tracer:
    """In-memory span recorder; one op id groups the spans of one op."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start_ns, end_ns, parent, op]
        self.stack: List[int] = []
        self.op: Optional[str] = None
        self._op_start = 0

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def begin_op(self, op: str) -> None:
        self.op = op
        self._op_start = len(self.spans)

    def end_op(self) -> None:
        self.op = None

    def add(self, name: str, start_ns: int, end_ns: int, op: str) -> None:
        """Record a finished top-level span."""
        self.spans.append([name, start_ns, end_ns, -1, op])

    def last_op_self_ms(self) -> Dict[str, float]:
        """Self time per span name, in ms, of the op that just ended."""
        return self_times_ms(self.spans, self._op_start)

    def dump(self, path: str) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "op")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def self_times_ms(spans: List[list], first: int = 0) -> Dict[str, float]:
    """A span's self time is its duration minus its children's durations."""
    child = defaultdict(int)
    for _, start, end, parent, _ in spans[first:]:
        if parent >= first:
            child[parent] += end - start
    out: Dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans[first:], first):
        out[name] += (end - start - child[i]) / 1e6
    return dict(out)
