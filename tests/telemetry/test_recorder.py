"""Tests for the JSONL recorder and the worker-merge contract."""

import pickle

import numpy as np
import pytest

from repro.telemetry import (
    NULL_RECORDER,
    JsonlRecorder,
    NullRecorder,
    SchemaError,
    load_stream,
)


class TestNullRecorder:
    def test_disabled_and_noop(self, tmp_path):
        assert NULL_RECORDER.enabled is False
        NULL_RECORDER.emit("note", message="ignored")
        assert NULL_RECORDER.for_task("x") is NULL_RECORDER
        NULL_RECORDER.absorb(NullRecorder())
        NULL_RECORDER.flush()
        NULL_RECORDER.close()
        assert list(tmp_path.iterdir()) == []

    def test_context_manager(self):
        with NullRecorder() as recorder:
            recorder.emit("note", message="x")

    def test_pickles(self):
        assert pickle.loads(pickle.dumps(NULL_RECORDER)).enabled is False


class TestJsonlRecorder:
    def test_emit_round_trip(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        with JsonlRecorder(path) as recorder:
            assert recorder.enabled is True
            recorder.emit("note", message="first")
            recorder.emit("note", message="train", seconds=1.5)
        records = load_stream(path)
        assert records == [
            {"kind": "note", "message": "first"},
            {"kind": "note", "message": "train", "seconds": 1.5},
        ]

    def test_validates_at_emit_time(self, tmp_path):
        recorder = JsonlRecorder(tmp_path / "m.jsonl")
        with pytest.raises(SchemaError):
            recorder.emit("no_such_kind", x=1)

    def test_coerces_numpy_scalars(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with JsonlRecorder(path) as recorder:
            recorder.emit(
                "note", message="train", seconds=np.float64(0.25),
            )
        [record] = load_stream(path)
        assert record["seconds"] == 0.25

    def test_creates_parent_directories_lazily(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "m.jsonl"
        recorder = JsonlRecorder(path)
        assert not path.parent.exists()
        recorder.emit("note", message="x")
        recorder.close()
        assert path.exists()

    def test_pickles_and_reopens_in_append_mode(self, tmp_path):
        path = tmp_path / "m.jsonl"
        recorder = JsonlRecorder(path)
        recorder.emit("note", message="parent")
        recorder.flush()
        clone = pickle.loads(pickle.dumps(recorder))
        clone.emit("note", message="worker")
        clone.close()
        recorder.close()
        messages = [r["message"] for r in load_stream(path)]
        assert messages == ["parent", "worker"]

    def test_for_task_is_deterministic_sibling(self, tmp_path):
        recorder = JsonlRecorder(tmp_path / "metrics.jsonl")
        child_a = recorder.for_task("SP/seed 0")
        child_b = recorder.for_task("SP/seed 0")
        assert child_a.path == child_b.path
        assert child_a.path.parent == recorder.path.parent
        assert child_a.path != recorder.path

    def test_absorb_merges_in_call_order_and_deletes(self, tmp_path):
        recorder = JsonlRecorder(tmp_path / "metrics.jsonl")
        children = [recorder.for_task(f"seed {i}") for i in range(3)]
        # Emit out of order — merge order is absorb-call order, not
        # write order, which is what makes parallel streams deterministic.
        for index in (2, 0, 1):
            children[index].emit("note", message=f"task {index}")
            children[index].close()
        for child in children:
            recorder.absorb(child)
        recorder.close()
        messages = [r["message"] for r in load_stream(recorder.path)]
        assert messages == ["task 0", "task 1", "task 2"]
        assert not any(child.path.exists() for child in children)

    def test_absorb_tolerates_silent_child(self, tmp_path):
        recorder = JsonlRecorder(tmp_path / "metrics.jsonl")
        recorder.absorb(recorder.for_task("never wrote"))
        recorder.emit("note", message="still fine")
        recorder.close()
        assert len(load_stream(recorder.path)) == 1
