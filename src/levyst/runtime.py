"""Ordered reductions, and a deterministic worker pool.

`reduce_sum` adds partial sums in fixed index order, so a total does not
depend on how the terms were split.  The sampler runs each chain in one
thread and does not use `WorkerPool`; the pool stays only while the
benchmark's traced run still patches it.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .errors import InvalidArgumentError, NumericError


@dataclass(frozen=True)
class WorkPlan:
    parity: str                             # "odd" | "even" (1-based index parity)
    assignments: tuple[tuple[int, ...], ...]  # 0-based time indices per worker

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(k for chunk in self.assignments for k in chunk)


def reduce_sum(partials) -> float:
    """Fixed left-to-right summation in index order; order-independent of
    worker completion order by construction."""
    total = 0.0
    for x in partials:
        x = float(x)
        if not math.isfinite(x):
            raise NumericError(f"non-finite partial in reduction: {x}")
        total += x
    return total


class WorkerPool:
    """Phase-scoped thread pool with deterministic result ordering.

    `run_phase` applies fn to every index of a plan and returns results keyed
    by index; with one worker everything runs inline.  Determinism relies on
    keyed random streams, not on execution order: each phase draws
    fixed-shape arrays, one row per index, from its own generator.
    """

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise InvalidArgumentError("worker count must be >= 1")
        self.workers = workers
        self._pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None

    def run_phase(self, plan: WorkPlan, fn) -> dict[int, object]:
        results: dict[int, object] = {}
        if self._pool is None:
            for chunk in plan.assignments:
                for k in chunk:
                    results[k] = fn(k)
            return results

        def run_chunk(chunk):
            return [(k, fn(k)) for k in chunk]

        for pairs in self._pool.map(run_chunk, plan.assignments):
            for k, res in pairs:
                results[k] = res
        return results

    def map_indices(self, indices, fn) -> list:
        """Apply fn over arbitrary indices, returning results in input order."""
        plan = WorkPlan(parity="odd", assignments=self._chunk(list(indices)))
        out = self.run_phase(plan, fn)
        return [out[k] for k in indices]

    def _chunk(self, indices):
        w = min(self.workers, max(1, len(indices)))
        base, extra = divmod(len(indices), w)
        chunks, start = [], 0
        for i in range(w):
            size = base + (1 if i < extra else 0)
            chunks.append(tuple(indices[start:start + size]))
            start += size
        return tuple(chunks)

    def close(self):
        if self._pool is not None:
            self._pool.shutdown()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
