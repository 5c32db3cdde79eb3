"""Span tracing from outside the program.

`Tracer.patch` replaces a public function by a wrapper under the name its
caller looks it up by (a module global, a module attribute or a class
attribute), so no line of the program changes.  Each call becomes a span
(id, parent id, name, start, end) kept in memory; the parent comes from a
per-thread stack, and work handed to the thread pool is parented explicitly
to the pool call that scheduled it.  `restore` puts every original back.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict

POOL_TASK = "runtime.task"


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _run(self, name: str, parent: int | None, fn, args, kwargs):
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else 0
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((sid, parent, name, start, end))

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        return self._run(name, None, fn, args, kwargs)

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] += value

    def wrap(self, fn, name: str, on_call=None):
        """A traced stand-in for fn; on_call(*args) may add counters."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            return self._run(name, None, fn, args, kwargs)
        return traced

    def wrap_pool_method(self, method, name: str, wrap_tasks: bool):
        """Trace a WorkerPool method; with wrap_tasks, each task it runs is a
        child span of the call, whichever pool thread runs it."""
        tracer = self

        @functools.wraps(method)
        def traced(pool, work, fn):
            def inside():
                if not wrap_tasks:
                    return method(pool, work, fn)
                parent = tracer._stack()[-1]
                return method(pool, work, lambda k: tracer._run(POOL_TASK, parent, fn, (k,), {}))
            return tracer._run(name, None, inside, (), {})
        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        """Set owner.attr to replacement until `restore`.  For a class the raw
        attribute is kept, so a classmethod is put back as a classmethod."""
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, summed duration (wall) and self time.

    Self time is a span's duration minus the part of it that its child spans
    cover, so time spent in two pool threads at once is not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, start, end in spans:
        children[parent].append((start, end))
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "wall": 0.0, "self": 0.0})
    for sid, _, name, start, end in spans:
        row = out[name]
        row["calls"] += 1
        row["wall"] += end - start
        row["self"] += (end - start) - _covered(children.get(sid, []), start, end)
    return out


def pool_usage(spans) -> dict[str, dict[str, float]]:
    """Wall and busy seconds of the pool's two entry points.

    A run_phase started by map_indices is counted under map_indices; busy
    time is the summed duration of the pool tasks below each entry point.
    """
    by_id = {s[0]: s for s in spans}
    task_time: dict[int, float] = defaultdict(float)
    for _, parent, name, start, end in spans:
        if name == POOL_TASK:
            task_time[parent] += end - start
    usage = {"runtime.run_phase": {"wall": 0.0, "busy": 0.0},
             "runtime.map_indices": {"wall": 0.0, "busy": 0.0}}
    for sid, parent, name, start, end in spans:
        if name == "runtime.map_indices":
            usage[name]["wall"] += end - start
        elif name == "runtime.run_phase":
            outer = by_id.get(parent)
            key = "runtime.map_indices" if outer is not None and outer[2] == "runtime.map_indices" else name
            usage[key]["busy"] += task_time[sid]
            if key == name:
                usage[name]["wall"] += end - start
    return usage
