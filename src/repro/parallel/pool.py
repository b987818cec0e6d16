"""Process-pool fan-out with deterministic tasks and a serial fallback.

The paper's workload is embarrassingly parallel at two levels: the ``k``
training seeds of Alg. 1 (line 13) and the 30 evaluation seeds of every
figure.  :func:`run_tasks` maps a picklable, module-level function over a
list of picklable task objects across worker processes.

Determinism contract: a task must carry every random seed it uses and
must not read mutable state shared with other tasks.  Under that
contract ``workers=N`` is bit-identical to ``workers=1`` — the pool only
changes *where* a task runs, never what it computes — and results are
returned in task order regardless of completion order.

Fallbacks: execution degrades to an in-process loop (mode
``"serial-fallback"`` in the timing report) when the function or any
task fails to pickle, or when the platform cannot start worker processes
(e.g. no ``/dev/shm`` semaphores).  ``workers=1`` is plain serial
execution with no multiprocessing import at all.

Worker failures surface instead of hanging: an exception inside a task
is re-raised in the parent as :class:`WorkerTaskError` naming the task's
label (e.g. the failing seed), a per-task ``timeout`` turns a stuck
worker into a :class:`WorkerTimeoutError`, and a worker process that dies
mid-batch into a :class:`WorkerDiedError` naming the batch and the first
unfinished task.  Every failure terminates the pool's workers first.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.parallel.timing import TaskTiming, TimingReport
from repro.telemetry import NULL_RECORDER, Recorder

__all__ = [
    "ParallelExecutionError",
    "WorkerTaskError",
    "WorkerTimeoutError",
    "WorkerDiedError",
    "ParallelResult",
    "resolve_workers",
    "run_tasks",
    "usable_cpus",
]

#: Environment knob: default worker count when callers pass ``workers=None``.
#: Unset/empty/"1" = serial; "auto"/"0" = one worker per usable CPU; any
#: other integer = that many workers (bounded by :func:`usable_cpus`).
WORKERS_ENV = "REPRO_WORKERS"


class ParallelExecutionError(RuntimeError):
    """Base class for failures of the parallel execution layer."""


class WorkerTaskError(ParallelExecutionError):
    """A task raised inside a worker process.

    Attributes:
        label: The failing task's label (typically names the seed).
    """

    def __init__(self, label: str, cause: BaseException) -> None:
        super().__init__(
            f"parallel task {label!r} failed: {type(cause).__name__}: {cause}"
        )
        self.label = label


class WorkerTimeoutError(ParallelExecutionError):
    """A task exceeded the per-task timeout; the pool was terminated."""

    def __init__(self, label: str, timeout: float) -> None:
        super().__init__(
            f"parallel task {label!r} did not finish within {timeout:.0f}s"
        )
        self.label = label


class WorkerDiedError(ParallelExecutionError):
    """A worker process died (killed, out of memory, crashed interpreter)
    before the batch finished; the pool was terminated."""

    def __init__(self, batch: str, label: str) -> None:
        super().__init__(
            f"a worker process of batch {batch!r} died; "
            f"parallel task {label!r} did not finish"
        )
        self.label = label


@dataclass
class ParallelResult:
    """Values (in task order) plus the batch's timing report."""

    values: List[Any]
    timing: TimingReport


def usable_cpus() -> int:
    """Cores this process may run on: its scheduler affinity where the
    platform exposes one (so ``taskset`` and cgroup cpusets count), else
    the installed core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_workers(
    workers: Optional[int] = None, num_tasks: Optional[int] = None
) -> int:
    """Resolve the effective worker count.

    An explicit ``workers`` argument is honoured as given (so tests can
    exercise the pool even on single-core machines); ``None`` falls back
    to the ``REPRO_WORKERS`` environment variable, bounded by
    :func:`usable_cpus`.  The result is never more than ``num_tasks`` and
    never less than 1.
    """
    cpus = usable_cpus()
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip().lower()
        if raw in ("", "1"):
            workers = 1
        elif raw in ("0", "auto"):
            workers = cpus
        else:
            try:
                workers = int(raw)
            except ValueError:
                raise ValueError(
                    f"{WORKERS_ENV}={raw!r} is not an integer or 'auto'"
                ) from None
            workers = min(workers, cpus)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if num_tasks is not None:
        workers = min(workers, max(num_tasks, 1))
    return workers


def _timed_call(fn: Callable[[Any], Any], task: Any) -> Tuple[Any, float]:
    """Run one task and report its worker-side wall-clock."""
    start = time.perf_counter()
    value = fn(task)
    return value, time.perf_counter() - start


def _pickle_failure(fn: Callable, tasks: Sequence[Any]) -> Optional[str]:
    """Why (fn, tasks) cannot cross a process boundary, or None if it can."""
    try:
        pickle.dumps(fn)
    except Exception as exc:  # pickle raises many types
        return f"function {getattr(fn, '__name__', fn)!r} is not picklable ({exc})"
    for index, task in enumerate(tasks):
        try:
            pickle.dumps(task)
        except Exception as exc:
            return f"task {index} is not picklable ({exc})"
    return None


def _run_serial(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    labels: Sequence[str],
    name: str,
    mode: str,
    note: str,
    recorder: Recorder,
    task_recorders: Optional[Sequence[Recorder]],
) -> ParallelResult:
    start = time.perf_counter()
    values: List[Any] = []
    timings: List[TaskTiming] = []
    for task, label in zip(tasks, labels):
        try:
            value, seconds = _timed_call(fn, task)
        except Exception as exc:
            raise WorkerTaskError(label, exc) from exc
        values.append(value)
        timings.append(TaskTiming(label=label, seconds=seconds))
    report = TimingReport(
        name=name,
        mode=mode,
        workers=1,
        total_seconds=time.perf_counter() - start,
        tasks=timings,
        note=note,
    )
    return _finish_batch(
        ParallelResult(values=values, timing=report), recorder, task_recorders
    )


def _abort(executor: Any) -> None:
    """Terminate the executor's workers and reap them.  ``shutdown`` alone
    waits for running tasks, and the executor offers no public way to stop
    them before Python 3.14's ``terminate_workers``."""
    for process in list((executor._processes or {}).values()):
        process.terminate()
    executor.shutdown(wait=True, cancel_futures=True)


def _finish_batch(
    result: ParallelResult,
    recorder: Recorder,
    task_recorders: Optional[Sequence[Recorder]],
) -> ParallelResult:
    """Merge worker-local telemetry streams and emit the batch's timing.

    Worker-local files are absorbed in *task order* (not completion
    order), so the merged stream is identical for serial and parallel
    execution of the same tasks.
    """
    if task_recorders is not None:
        for child in task_recorders:
            recorder.absorb(child)
    if recorder.enabled:
        report = result.timing
        for task in report.tasks:
            recorder.emit(
                "task_timing", label=task.label, seconds=task.seconds,
                batch=report.name,
            )
        recorder.emit(
            "batch_timing",
            name=report.name,
            mode=report.mode,
            workers=report.workers,
            total_seconds=report.total_seconds,
            serial_seconds=report.serial_seconds,
            speedup=report.speedup,
            utilization=report.utilization,
        )
    return result


def run_tasks(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    workers: Optional[int] = None,
    labels: Optional[Sequence[str]] = None,
    timeout: Optional[float] = None,
    name: str = "tasks",
    recorder: Recorder = NULL_RECORDER,
    task_recorders: Optional[Sequence[Recorder]] = None,
) -> ParallelResult:
    """Map ``fn`` over ``tasks``, fanning out across worker processes.

    Args:
        fn: Module-level (picklable) single-argument function.
        tasks: Picklable task objects; each must be self-contained (own
            seeds, no shared mutable state) for the determinism guarantee.
        workers: Worker processes; ``None`` reads ``REPRO_WORKERS``
            (default serial).  ``1`` runs in-process.
        labels: Per-task labels for error messages and the timing report;
            defaults to ``task[0..n)``.
        timeout: Per-task seconds before the batch is aborted with
            :class:`WorkerTimeoutError`.
        name: Batch name for the timing report.
        recorder: Telemetry sink; when enabled the batch emits one
            ``task_timing`` record per task plus a ``batch_timing``
            record, after merging ``task_recorders``.
        task_recorders: Optional per-task worker-local recorders (aligned
            with ``tasks``; see
            :meth:`repro.telemetry.JsonlRecorder.for_task`).  Each task's
            stream is merged into ``recorder`` in task order once the
            batch completes, regardless of where the task ran.

    Returns:
        :class:`ParallelResult` with values in task order and a
        :class:`~repro.parallel.timing.TimingReport`.

    Raises:
        WorkerTaskError: A task raised; the error names the task's label.
        WorkerTimeoutError: A task exceeded ``timeout``.
        WorkerDiedError: A worker process died before the batch finished.
    """
    tasks = list(tasks)
    if labels is None:
        labels = [f"task{i}" for i in range(len(tasks))]
    labels = [str(label) for label in labels]
    if len(labels) != len(tasks):
        raise ValueError(f"{len(labels)} labels for {len(tasks)} tasks")
    if task_recorders is not None and len(task_recorders) != len(tasks):
        raise ValueError(
            f"{len(task_recorders)} task recorders for {len(tasks)} tasks"
        )
    workers = resolve_workers(workers, num_tasks=len(tasks))
    if not tasks:
        return ParallelResult(
            values=[],
            timing=TimingReport(name=name, mode="serial", workers=1, total_seconds=0.0),
        )
    if workers <= 1:
        return _run_serial(fn, tasks, labels, name, "serial", "", recorder, task_recorders)
    reason = _pickle_failure(fn, tasks)
    if reason is not None:
        return _run_serial(
            fn, tasks, labels, name, "serial-fallback", reason, recorder, task_recorders
        )

    executor = None
    try:
        import multiprocessing as mp
        from concurrent.futures import Future, ProcessPoolExecutor
        from concurrent.futures import TimeoutError as FutureTimeout
        from concurrent.futures.process import BrokenProcessPool

        # fork where the platform has it (cheap on Linux); spawn is the
        # only start method elsewhere, and the task protocol holds for both.
        context = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        executor = ProcessPoolExecutor(max_workers=workers, mp_context=context)
        start = time.perf_counter()
        # The first submit starts the workers; when it cannot, no task has
        # begun and the batch still runs in-process.
        pending = [executor.submit(_timed_call, fn, tasks[0])]
    except (ImportError, NotImplementedError, OSError) as exc:  # pragma: no cover
        if executor is not None:
            _abort(executor)
        note = f"could not start worker processes ({exc})"
        return _run_serial(
            fn, tasks, labels, name, "serial-fallback", note, recorder, task_recorders
        )

    try:
        try:
            for task in tasks[1:]:
                pending.append(executor.submit(_timed_call, fn, task))
        except BrokenProcessPool as exc:
            # Died during submission: fails like the futures it broke.
            pending.append(Future())
            pending[-1].set_exception(exc)
        values: List[Any] = []
        timings: List[TaskTiming] = []
        for label, future in zip(labels, pending):
            try:
                error = future.exception(timeout)
            except FutureTimeout:
                raise WorkerTimeoutError(label, timeout or 0.0) from None
            if isinstance(error, BrokenProcessPool):
                # A dead worker fails every unfinished future at once; in
                # task order the first of them is this one.
                raise WorkerDiedError(name, label) from error
            if isinstance(error, ParallelExecutionError):
                raise error
            if error is not None:
                raise WorkerTaskError(label, error) from error
            value, seconds = future.result()
            values.append(value)
            timings.append(TaskTiming(label=label, seconds=seconds))
    except BaseException:
        _abort(executor)
        raise
    executor.shutdown(wait=True)
    report = TimingReport(
        name=name,
        mode="process-pool",
        workers=workers,
        total_seconds=time.perf_counter() - start,
        tasks=timings,
    )
    return _finish_batch(
        ParallelResult(values=values, timing=report), recorder, task_recorders
    )
