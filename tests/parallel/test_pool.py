"""Unit tests for the process-pool fan-out layer."""

import os
import time

import pytest

from repro.parallel import (
    WORKERS_ENV,
    WorkerTaskError,
    WorkerTimeoutError,
    resolve_workers,
    run_tasks,
    usable_cpus,
)
from repro.telemetry import JsonlRecorder, load_stream


# Module-level helpers so they cross process boundaries.


def _square(task, recorder):
    return task * task


def _fail_on(task, recorder):
    if task == 3:
        raise RuntimeError("injected failure")
    return task


def _sleep(seconds, recorder):
    time.sleep(seconds)
    return seconds


def _type_name(task, recorder):
    return type(task).__name__


def _note(task, recorder):
    recorder.emit("note", message=f"task {task}")
    return task


def _note_then_fail_on_2(task, recorder):
    recorder.emit("note", message=f"task {task}")
    if task == 2:
        raise RuntimeError("injected failure")
    return task


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers() == 1

    def test_explicit_argument_honoured_as_given(self):
        # Not bounded by cpu_count, so the pool is testable on any box.
        assert resolve_workers(4) == 4

    def test_env_auto_uses_cpu_count(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "auto")
        assert resolve_workers() == usable_cpus()
        monkeypatch.setenv(WORKERS_ENV, "0")
        assert resolve_workers() == usable_cpus()

    def test_env_integer_bounded_by_cpus(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "64")
        assert resolve_workers() == min(64, usable_cpus())

    @pytest.mark.parametrize("cores", [1, 8])
    def test_default_follows_affinity_not_installed_cores(self, monkeypatch, cores):
        """A pinned process (taskset / cgroup cpuset) sizes its pool by
        the cores it may run on, whatever the host has installed."""
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert usable_cpus() == cores
        monkeypatch.setenv(WORKERS_ENV, "auto")
        assert resolve_workers() == cores

    def test_usable_cpus_without_affinity_support(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cpus() == 1

    def test_env_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers()

    def test_bounded_by_num_tasks(self):
        assert resolve_workers(8, num_tasks=3) == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(0)


class TestRunTasksSerial:
    def test_values_in_task_order(self):
        outcome = run_tasks(_square, [1, 2, 3], workers=1)
        assert outcome.values == [1, 4, 9]
        assert outcome.timing.mode == "serial"
        assert outcome.timing.workers == 1
        assert len(outcome.timing.tasks) == 3

    def test_empty_batch(self):
        outcome = run_tasks(_square, [], workers=4)
        assert outcome.values == []

    def test_error_names_label(self):
        with pytest.raises(WorkerTaskError, match="seed 3"):
            run_tasks(_fail_on, [1, 2, 3], workers=1, labels=["seed 1", "seed 2", "seed 3"])

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            run_tasks(_square, [1, 2], workers=1, labels=["only one"])


class TestRunTasksPool:
    def test_values_in_task_order(self):
        outcome = run_tasks(_square, list(range(7)), workers=3)
        assert outcome.values == [i * i for i in range(7)]
        assert outcome.timing.mode == "process-pool"
        assert outcome.timing.workers == 3

    def test_matches_serial(self):
        serial = run_tasks(_square, list(range(5)), workers=1)
        pooled = run_tasks(_square, list(range(5)), workers=4)
        assert serial.values == pooled.values

    def test_error_names_label(self):
        with pytest.raises(WorkerTaskError, match="seed 3"):
            run_tasks(
                _fail_on,
                [1, 2, 3],
                workers=2,
                labels=["seed 1", "seed 2", "seed 3"],
            )

    def test_timeout_surfaces_stuck_worker(self):
        with pytest.raises(WorkerTimeoutError, match="slow seed"):
            run_tasks(
                _sleep,
                [30.0, 30.0],
                workers=2,
                labels=["slow seed", "other seed"],
                timeout=0.5,
            )

    def test_spawn_is_the_path_on_forkless_platforms(self, monkeypatch):
        """Where the platform offers no fork the pool spawns; the task
        protocol (module-level fn, picklable tasks) must survive a fresh
        interpreter per worker."""
        import multiprocessing

        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        spawned = []
        get_context = multiprocessing.get_context
        monkeypatch.setattr(
            multiprocessing,
            "get_context",
            lambda method: spawned.append(method) or get_context(method),
        )
        outcome = run_tasks(_square, list(range(5)), workers=2)
        assert spawned == ["spawn"]
        assert outcome.timing.mode == "process-pool"
        assert outcome.values == run_tasks(_square, list(range(5)), workers=1).values

    def test_unpicklable_fn_falls_back_to_serial(self):
        outcome = run_tasks(lambda task, recorder: task + 1, [1, 2], workers=2)
        assert outcome.values == [2, 3]
        assert outcome.timing.mode == "serial-fallback"
        assert "not picklable" in outcome.timing.note

    def test_unpicklable_task_falls_back_to_serial(self):
        outcome = run_tasks(
            _type_name, [2, lambda: None], workers=2, labels=["a", "b"]
        )
        assert outcome.values == ["int", "function"]
        assert outcome.timing.mode == "serial-fallback"
        assert "task 1" in outcome.timing.note


class TestWorkerStreams:
    """``run_tasks`` owns the worker-local telemetry files: whatever
    happens to the batch, only the run's own stream is left behind."""

    LABELS = [f"seed {i}" for i in range(4)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_batch_keeps_what_a_serial_run_finished(self, tmp_path, workers):
        recorder = JsonlRecorder(tmp_path / "metrics.jsonl")
        with pytest.raises(WorkerTaskError, match="'seed 2'"):
            run_tasks(
                _note_then_fail_on_2, [0, 1, 2, 3], workers=workers,
                labels=self.LABELS, recorder=recorder,
            )
        recorder.close()
        assert sorted(os.listdir(tmp_path)) == ["metrics.jsonl"]
        assert load_stream(tmp_path / "metrics.jsonl") == [
            {"kind": "note", "message": "task 0"},
            {"kind": "note", "message": "task 1"},
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stale_stream_of_a_dead_run_is_not_merged(self, tmp_path, workers):
        recorder = JsonlRecorder(tmp_path / "metrics.jsonl")
        stale = recorder.for_task("0-seed 0")
        stale.emit("note", message="left by a dead run")
        stale.close()
        run_tasks(
            _note, [0, 1], workers=workers, labels=self.LABELS[:2],
            recorder=recorder,
        )
        recorder.close()
        notes = [
            r["message"]
            for r in load_stream(tmp_path / "metrics.jsonl")
            if r["kind"] == "note"
        ]
        assert notes == ["task 0", "task 1"]
        assert sorted(os.listdir(tmp_path)) == ["metrics.jsonl"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_equal_labels_get_separate_streams(self, tmp_path, workers):
        recorder = JsonlRecorder(tmp_path / "metrics.jsonl")
        run_tasks(
            _note, [0, 1, 2], workers=workers, labels=["same"] * 3,
            recorder=recorder,
        )
        recorder.close()
        notes = [
            r["message"]
            for r in load_stream(tmp_path / "metrics.jsonl")
            if r["kind"] == "note"
        ]
        assert notes == ["task 0", "task 1", "task 2"]


class TestTimingReport:
    def test_accounting(self):
        outcome = run_tasks(_square, [1, 2, 3], workers=1, name="demo")
        report = outcome.timing
        assert report.serial_seconds == pytest.approx(
            sum(t.seconds for t in report.tasks)
        )
        assert report.speedup > 0
        assert 0.0 <= report.utilization
        payload = report.to_dict()
        assert payload["name"] == "demo"
        assert len(payload["tasks"]) == 3
        assert "demo" in report.render()
        assert "3 tasks" in report.render()
