"""In-memory spans around calls into pairlab's public functions.

A span is ``(name, start, end, parent, rep)``: ``parent`` is the index of the
enclosing span (-1 at top level) and ``rep`` the ``(cell, replicate)`` the
call belongs to.  Spans stay in memory and are written once, when the run
ends.  A disabled tracer calls straight through, which gives the spans-off
replay that the tracing overhead is measured against.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self._stack = [-1]
        self.rep: tuple[int, int] | None = None  # set by the replay loop
        self.steps = 0  # exploration steps taken
        self.points: dict[int, int] = {}  # cell -> 2m of its point space

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.rep)

    @contextmanager
    def instrument(self, module, attr: str, name: str):
        """Span every call the package itself makes through ``module.attr``.

        Used where a public function is reached only from inside another one
        (``explore_component`` calling ``start_exploration``); the attribute
        is restored on exit, so no source file changes.
        """
        if not self.enabled:
            yield
            return
        original = getattr(module, attr)

        def wrapped(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)

        setattr(module, attr, wrapped)
        try:
            yield
        finally:
            setattr(module, attr, original)


def coverage(spans: list[tuple], wall: float) -> float:
    """Share of ``wall`` covered by top-level spans."""
    return sum(end - start for _, start, end, parent, _ in spans if parent == -1) / wall


def layer_stats(
    spans: list[tuple], sizes: list[int], points: dict[int, int]
) -> dict[str, dict]:
    """Per span name, and per ``name.n<size>``: calls, busy seconds, the
    durations and the points of the cells called on.  ``sizes[cell]`` is a
    cell's vertex count and ``points[cell]`` its 2m."""
    out: dict[str, dict] = {}
    for name, start, end, _, rep in spans:
        keys = [name]
        if rep is not None:
            keys.append(f"{name}.n{sizes[rep[0]]}")
        for key in keys:
            entry = out.setdefault(
                key, {"calls": 0, "busy_s": 0.0, "durations": [], "points": 0}
            )
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["durations"].append(end - start)
            if rep is not None:
                entry["points"] += points.get(rep[0], 0)
    return out


def median_ms(durations: list[float]) -> float:
    """Median call time; 0 for a function the workload never calls."""
    return statistics.median(durations) * 1e3 if durations else 0.0


def write_spans(path: Path, passes: list[list[tuple]]) -> None:
    with open(path, "w") as fh:
        for pass_index, spans in enumerate(passes):
            for name, start, end, parent, rep in spans:
                fh.write(json.dumps({
                    "pass": pass_index, "name": name, "start": start,
                    "end": end, "parent": parent,
                    "rep": list(rep) if rep is not None else None,
                }) + "\n")
