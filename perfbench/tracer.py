"""In-memory tracer that measures the program's layers from outside.

The tracer wraps public functions and methods of ``repro`` by replacing
the module or class attribute through which callers reach them, and
puts every original back on ``close``.  Two kinds of wrapper exist:

* **spans** for outer calls (a cell, a baseline run, placement tables):
  name, start, end, parent span and the cell id, kept in a list and
  reduced to self time (a span minus the part its children cover);
* **counters** for hot per-segment calls (classify, choose, queue
  checks): a call count and summed seconds, no per-call record.

A counter ignores calls made while an outer call of the same counter is
running, so a method that delegates to its base class counts once.
Nothing is installed unless a traced run asks for it, so untraced runs
execute the program unmodified.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.values: dict[str, list[float]] = defaultdict(list)
        self.cell: str | None = None
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------
    def span(self, name: str):
        return _Span(self, name)

    def count(self, name: str, n: int = 1) -> None:
        self.calls[name] += n

    def record(self, name: str, value: float) -> None:
        self.values[name].append(value)

    # -- patching ------------------------------------------------------------
    def replace(self, owner, attr: str, wrapper) -> None:
        """Set ``owner.attr`` to ``wrapper`` until ``close``."""
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap_span(self, owner, attr: str, name: str, on_result=None) -> None:
        """Record a span around every call of ``owner.attr``."""
        fn = owner.__dict__[attr]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(args, kwargs, out)
            return out

        self.replace(owner, attr, wrapper)

    def wrap_counter(self, owner, attr: str, name: str, on_result=None) -> None:
        """Count calls of ``owner.attr`` and sum their wall time."""
        fn = owner.__dict__[attr]
        clock = time.perf_counter
        calls, seconds, depth = self.calls, self.seconds, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[name]:
                return fn(*args, **kwargs)
            depth[name] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                seconds[name] += clock() - t0
                calls[name] += 1
                depth[name] -= 1
            if on_result is not None:
                on_result(args, kwargs, out)
            return out

        self.replace(owner, attr, wrapper)

    def close(self) -> None:
        """Put back every original attribute, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reduction -----------------------------------------------------------
    def span_seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_seconds(self, name: str) -> float:
        """Summed duration of ``name`` spans minus their children's."""
        children: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]] += s["end"] - s["start"]
        return sum(
            s["end"] - s["start"] - children[s["id"]]
            for s in self.spans
            if s["name"] == name
        )

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(
                {
                    "spans": self.spans,
                    "calls": dict(self.calls),
                    "seconds": dict(self.seconds),
                },
                f,
            )


class _Span:
    __slots__ = ("tracer", "name", "rec")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.rec = {
            "id": len(t.spans),
            "name": self.name,
            "parent": t._stack[-1] if t._stack else None,
            "cell": t.cell,
            "start": time.perf_counter(),
            "end": None,
        }
        t.spans.append(self.rec)
        t._stack.append(self.rec["id"])
        return self.rec

    def __exit__(self, *exc) -> None:
        self.rec["end"] = time.perf_counter()
        self.tracer._stack.pop()
