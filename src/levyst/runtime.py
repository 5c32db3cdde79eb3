"""Execution fabric: parity scheduling, ordered reductions, snapshots.

The sampler's data flow mimics a message-passing design with shared-memory
workers: time blocks of one parity update concurrently against a frozen
snapshot of the opposite parity, partial sums are combined in fixed index
order, and coordinator state is rebroadcast as immutable snapshots.  Results
are bit-identical for every worker count.
"""

from __future__ import annotations

import copy
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericError


@dataclass(frozen=True)
class WorkPlan:
    parity: str                             # "odd" | "even" (1-based index parity)
    assignments: tuple[tuple[int, ...], ...]  # 0-based time indices per worker

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(k for chunk in self.assignments for k in chunk)


def schedule_parity(m: int, parity: str, workers: int) -> WorkPlan:
    """Balanced contiguous-chunk assignment of one parity class."""
    if workers < 1:
        raise InvalidArgumentError("worker count must be >= 1")
    if parity not in ("odd", "even"):
        raise InvalidArgumentError("parity must be 'odd' or 'even'")
    indices = [k for k in range(m) if ((k + 1) % 2 == 1) == (parity == "odd")]
    w = min(workers, max(1, len(indices)))
    base, extra = divmod(len(indices), w)
    chunks, start = [], 0
    for i in range(w):
        size = base + (1 if i < extra else 0)
        chunks.append(tuple(indices[start:start + size]))
        start += size
    return WorkPlan(parity=parity, assignments=tuple(chunks))


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


def snapshot_broadcast(obj):
    """Deep copy with every numpy array frozen read-only.

    Workers holding the returned handle observe the values at broadcast time
    regardless of later coordinator mutation.
    """
    snap = copy.deepcopy(obj)

    def _freeze(x):
        if isinstance(x, np.ndarray):
            x.setflags(write=False)
        elif isinstance(x, dict):
            for v in x.values():
                _freeze(v)
        elif isinstance(x, (list, tuple)):
            for v in x:
                _freeze(v)
        elif hasattr(x, "__dict__"):
            for v in vars(x).values():
                _freeze(v)

    _freeze(snap)
    return snap


class WorkerPool:
    """Phase-scoped thread pool with deterministic result ordering.

    `run_phase` applies fn to every index of a plan and returns results keyed
    by index; with one worker everything runs inline.  Determinism relies on
    per-index random streams, not on execution order.
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
