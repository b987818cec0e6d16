"""Timing reports for fan-out execution.

Every :func:`repro.parallel.pool.run_tasks` call measures each task's
wall-clock inside the worker and the whole batch's wall-clock in the
parent.  The resulting :class:`TimingReport` quantifies the speedup over
a serial run (sum of task seconds / batch wall-clock) and how busy the
workers were, so benchmark JSONs can capture the perf trajectory of the
parallel execution layer over time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

__all__ = ["TaskTiming", "TimingReport"]


@dataclass(frozen=True)
class TaskTiming:
    """Wall-clock of one task, measured inside the worker."""

    label: str
    seconds: float


@dataclass
class TimingReport:
    """Wall-clock accounting of one fan-out batch.

    Attributes:
        name: What the batch computed (e.g. ``"train[acktr]"``).
        mode: ``"serial"``, ``"process-pool"``, or ``"serial-fallback"``
            (parallel was requested but unavailable; ``note`` says why).
        workers: Worker processes used (1 for serial modes).
        total_seconds: Wall-clock of the whole batch, parent-side.
        tasks: Per-task wall-clock, worker-side.
        note: Optional human-readable detail (fallback reason etc.).
    """

    name: str
    mode: str
    workers: int
    total_seconds: float
    tasks: List[TaskTiming] = field(default_factory=list)
    note: str = ""

    @property
    def serial_seconds(self) -> float:
        """Serial-equivalent cost: the sum of all task wall-clocks."""
        return float(sum(t.seconds for t in self.tasks))

    @property
    def speedup(self) -> float:
        """Estimated speedup vs. running the same tasks back to back.

        Estimated from the in-worker task wall-clocks, so it is exact
        when each worker has a core to itself; on an oversubscribed CPU
        the task clocks stretch and the estimate is optimistic — compare
        ``total_seconds`` against a ``workers=1`` run for a strict
        measurement.
        """
        if self.total_seconds <= 0:
            return 1.0
        return self.serial_seconds / self.total_seconds

    @property
    def utilization(self) -> float:
        """Fraction of worker capacity spent inside tasks (1.0 = all
        workers busy for the whole batch)."""
        if self.total_seconds <= 0 or self.workers <= 0:
            return 0.0
        return self.serial_seconds / (self.total_seconds * self.workers)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form for bench reports."""
        return {
            "name": self.name,
            "mode": self.mode,
            "workers": self.workers,
            "total_seconds": self.total_seconds,
            "serial_seconds": self.serial_seconds,
            "speedup": self.speedup,
            "utilization": self.utilization,
            "tasks": [{"label": t.label, "seconds": t.seconds} for t in self.tasks],
            "note": self.note,
        }

    def render(self) -> str:
        """Human-readable one-line summary."""
        return (
            f"{self.name}: {len(self.tasks)} tasks in {self.total_seconds:.2f}s "
            f"({self.mode}, workers={self.workers}) "
            f"speedup={self.speedup:.2f}x utilization={self.utilization:.0%}"
            + (f" [{self.note}]" if self.note else "")
        )
