"""Process-parallel execution layer.

Fans the repo's two embarrassingly parallel workloads — per-seed
training runs (Alg. 1's ``k`` seeds) and per-seed evaluations (the
paper's 30 evaluation seeds) — out across worker processes, with
deterministic per-task seeding so ``workers=N`` is bit-identical to
``workers=1``.  See :mod:`repro.parallel.pool` for the execution
semantics and fallback rules, :mod:`repro.parallel.protocol` for the
picklable task contract, and :mod:`repro.parallel.timing` for the
emitted timing reports.
"""

from repro.parallel.pool import (
    ParallelExecutionError,
    ParallelResult,
    WORKERS_ENV,
    WorkerDiedError,
    WorkerTaskError,
    WorkerTimeoutError,
    resolve_workers,
    run_tasks,
    usable_cpus,
)
from repro.parallel.protocol import CountingEnvFactory, EnvBuilder
from repro.parallel.timing import TaskTiming, TimingReport

__all__ = [
    "CountingEnvFactory",
    "EnvBuilder",
    "ParallelExecutionError",
    "ParallelResult",
    "TaskTiming",
    "TimingReport",
    "WORKERS_ENV",
    "WorkerDiedError",
    "WorkerTaskError",
    "WorkerTimeoutError",
    "resolve_workers",
    "run_tasks",
    "usable_cpus",
]
