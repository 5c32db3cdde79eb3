"""An inline task runner.

The sampler runs each chain in one thread and does not use `WorkerPool`;
the class stays only while the benchmark's traced run still patches its
two methods by name.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class WorkPlan:
    parity: str                             # "odd" | "even" (1-based index parity)
    assignments: tuple[tuple[int, ...], ...]  # 0-based time indices per chunk

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(k for chunk in self.assignments for k in chunk)


class WorkerPool:
    """Runs every task inline, in plan or input order."""

    def run_phase(self, plan: WorkPlan, fn) -> dict[int, object]:
        """fn applied to every index of the plan, keyed by index."""
        return {k: fn(k) for k in plan.indices}

    def map_indices(self, indices, fn) -> list:
        """fn applied over arbitrary indices, in input order."""
        return [fn(k) for k in indices]
