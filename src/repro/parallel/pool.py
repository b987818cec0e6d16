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
from repro.telemetry import NULL_RECORDER, JsonlRecorder, Recorder

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


def _timed_call(
    fn: Callable[[Any, Recorder], Any], task: Any, stream: Recorder
) -> Tuple[Any, float]:
    """Run one task against its worker-local stream, close the stream,
    and report the task's worker-side wall-clock."""
    start = time.perf_counter()
    try:
        value = fn(task, stream)
    finally:
        stream.close()
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


def _discard(stream: Recorder) -> None:
    """Delete a worker-local stream without merging it."""
    if isinstance(stream, JsonlRecorder):
        stream.close()
        stream.path.unlink(missing_ok=True)


def _run_serial(
    fn: Callable[[Any, Recorder], Any],
    tasks: Sequence[Any],
    streams: Sequence[Recorder],
    labels: Sequence[str],
    done: List[Tuple[Any, float]],
) -> None:
    for task, stream, label in zip(tasks, streams, labels):
        try:
            done.append(_timed_call(fn, task, stream))
        except Exception as exc:
            raise WorkerTaskError(label, exc) from exc


def _abort(executor: Any) -> None:
    """Terminate the executor's workers and reap them.  ``shutdown`` alone
    waits for running tasks, and the executor offers no public way to stop
    them before Python 3.14's ``terminate_workers``."""
    for process in list((executor._processes or {}).values()):
        process.terminate()
    executor.shutdown(wait=True, cancel_futures=True)


def _execute(
    fn: Callable[[Any, Recorder], Any],
    tasks: Sequence[Any],
    streams: Sequence[Recorder],
    labels: Sequence[str],
    workers: int,
    timeout: Optional[float],
    name: str,
    done: List[Tuple[Any, float]],
) -> Tuple[str, int, str]:
    """Run the batch, appending each finished task's ``(value, seconds)``
    to ``done`` in task order (so a failure leaves exactly the tasks that
    precede the failing one); returns the report's mode, workers, note."""
    if workers <= 1:
        _run_serial(fn, tasks, streams, labels, done)
        return "serial", 1, ""
    reason = _pickle_failure(fn, tasks)
    if reason is not None:
        _run_serial(fn, tasks, streams, labels, done)
        return "serial-fallback", 1, reason

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
        # The first submit starts the workers; when it cannot, no task has
        # begun and the batch still runs in-process.
        pending = [executor.submit(_timed_call, fn, tasks[0], streams[0])]
    except (ImportError, NotImplementedError, OSError) as exc:  # pragma: no cover
        if executor is not None:
            _abort(executor)
        _run_serial(fn, tasks, streams, labels, done)
        return "serial-fallback", 1, f"could not start worker processes ({exc})"

    try:
        try:
            for task, stream in zip(tasks[1:], streams[1:]):
                pending.append(executor.submit(_timed_call, fn, task, stream))
        except BrokenProcessPool as exc:
            # Died during submission: fails like the futures it broke.
            pending.append(Future())
            pending[-1].set_exception(exc)
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
            done.append(future.result())
    except BaseException:
        _abort(executor)
        raise
    executor.shutdown(wait=True)
    return "process-pool", workers, ""


def run_tasks(
    fn: Callable[[Any, Recorder], Any],
    tasks: Sequence[Any],
    workers: Optional[int] = None,
    labels: Optional[Sequence[str]] = None,
    timeout: Optional[float] = None,
    name: str = "tasks",
    recorder: Recorder = NULL_RECORDER,
) -> ParallelResult:
    """Map ``fn`` over ``tasks``, fanning out across worker processes.

    Args:
        fn: Module-level (picklable) function ``fn(task, recorder)``; the
            recorder is the task's worker-local telemetry stream
            (:data:`~repro.telemetry.NULL_RECORDER` when telemetry is off).
        tasks: Picklable task objects; each must be self-contained (own
            seeds, no shared mutable state) for the determinism guarantee.
        workers: Worker processes; ``None`` reads ``REPRO_WORKERS``
            (default serial).  ``1`` runs in-process.
        labels: Per-task labels for error messages and the timing report;
            defaults to ``task[0..n)``.
        timeout: Per-task seconds before the batch is aborted with
            :class:`WorkerTimeoutError`.
        name: Batch name for the timing report.
        recorder: Telemetry sink of the whole batch (see below).

    Telemetry: this function owns the worker-stream protocol.  It derives
    one stream per task from ``recorder`` (``for_task("<index>-<label>")``,
    so equal labels cannot share a file; a file a dead run left at that
    path is removed first), hands it to ``fn``, closes it where the task
    ran, and once the batch completes absorbs the streams in *task order*
    — the merged stream is identical for serial and pooled execution —
    followed by one ``task_timing`` record per task and a
    ``batch_timing`` record.  When the batch fails (or is interrupted) it
    absorbs the streams of the tasks that precede the failing one in task
    order, which is what a serial run would have finished, deletes the
    rest and re-raises: no worker-local file outlives the call.

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
    workers = resolve_workers(workers, num_tasks=len(tasks))
    if not tasks:
        return ParallelResult(
            values=[],
            timing=TimingReport(name=name, mode="serial", workers=1, total_seconds=0.0),
        )
    streams = [
        recorder.for_task(f"{index}-{label}") for index, label in enumerate(labels)
    ]
    for stream in streams:
        _discard(stream)
    done: List[Tuple[Any, float]] = []
    start = time.perf_counter()
    try:
        mode, workers, note = _execute(
            fn, tasks, streams, labels, workers, timeout, name, done
        )
    except BaseException:
        for stream in streams[: len(done)]:
            recorder.absorb(stream)
        for stream in streams[len(done) :]:
            _discard(stream)
        recorder.flush()
        raise
    report = TimingReport(
        name=name,
        mode=mode,
        workers=workers,
        total_seconds=time.perf_counter() - start,
        tasks=[
            TaskTiming(label=label, seconds=seconds)
            for label, (_, seconds) in zip(labels, done)
        ],
        note=note,
    )
    for stream in streams:
        recorder.absorb(stream)
    if recorder.enabled:
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
    return ParallelResult(values=[value for value, _ in done], timing=report)
