"""Tests for run manifests and run directories."""

import json

import pytest

from repro.telemetry import (
    MANIFEST_FILENAME,
    STREAM_FILENAME,
    SCHEMA_VERSION,
    load_stream,
    read_manifest,
    start_run,
)


class TestStartRun:
    def test_creates_directory_manifest_and_stream(self, tmp_path):
        run_dir = tmp_path / "runs" / "exp1"
        with start_run(run_dir, "train", config={"updates": 3}, seeds=(0, 1)) as run:
            run.recorder.emit("note", message="hello")
        assert (run_dir / MANIFEST_FILENAME).exists()
        assert run.stream_path == run_dir / STREAM_FILENAME
        assert len(load_stream(run.stream_path)) == 1

    def test_manifest_round_trip(self, tmp_path):
        with start_run(
            tmp_path, "evaluate", config={"algorithm": "sp"}, seeds=range(3)
        ):
            pass
        manifest = read_manifest(tmp_path)
        assert manifest.name == "evaluate"
        assert manifest.config == {"algorithm": "sp"}
        assert list(manifest.seeds) == [0, 1, 2]
        assert manifest.schema_version == SCHEMA_VERSION
        assert manifest.package_version
        assert manifest.created.endswith("Z")

    def test_host_facts_round_trip(self, tmp_path, monkeypatch):
        """Bit-level comparability rests on the BLAS pool size: the
        manifest records the usable cores and the thread variables in
        force, and the report shows them."""
        import os

        from repro.telemetry import summarize_run

        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False
        )
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        with start_run(tmp_path, "train") as run:
            run.recorder.emit("note", message="x")
        manifest = read_manifest(tmp_path)
        assert manifest.usable_cpus == 3
        assert manifest.blas_threads == {
            "OPENBLAS_NUM_THREADS": "2",
            "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": None,
        }
        assert (
            "host: usable_cpus=3 MKL_NUM_THREADS=unset OMP_NUM_THREADS=1 "
            "OPENBLAS_NUM_THREADS=2"
        ) in summarize_run(tmp_path)

    def test_manifest_without_host_facts_still_loads(self, tmp_path):
        (tmp_path / MANIFEST_FILENAME).write_text(json.dumps({"name": "old"}))
        manifest = read_manifest(tmp_path)
        assert manifest.usable_cpus == 0 and manifest.blas_threads == {}
        assert manifest.switches == {}

    def test_surviving_switches_recorded_verbatim(self, tmp_path, monkeypatch):
        """An env-var switch reaches a run without passing argparse, so
        the manifest states it: raw value, ``null`` when unset."""
        from repro.telemetry import summarize_run

        monkeypatch.setenv("REPRO_EVAL_DTYPE", "f32")
        monkeypatch.setenv("REPRO_WORKERS", " Auto ")
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        with start_run(tmp_path, "evaluate") as run:
            run.recorder.emit("note", message="x")
        raw = json.loads((tmp_path / MANIFEST_FILENAME).read_text())
        assert raw["switches"] == {
            "REPRO_WORKERS": " Auto ",
            "REPRO_EVAL_DTYPE": "f32",
            "REPRO_CHECK_INVARIANTS": None,
        }
        assert read_manifest(tmp_path).switches == raw["switches"]
        report = summarize_run(tmp_path)
        assert "switches: REPRO_EVAL_DTYPE=f32 REPRO_WORKERS= Auto " in report
        assert "REPRO_CHECK_INVARIANTS" not in report

    def test_switch_vars_are_the_repro_variables_src_names(self):
        """A new ``REPRO_*`` read in ``src/`` must join the manifest."""
        import re
        from pathlib import Path

        import repro
        from repro.telemetry.manifest import SWITCH_VARS

        named = set()
        for path in Path(repro.__file__).parent.rglob("*.py"):
            named.update(re.findall(r"REPRO_[A-Z_]+", path.read_text(encoding="utf-8")))
        assert named - {"REPRO_"} == set(SWITCH_VARS)

    def test_no_switch_set_no_switches_line(self, tmp_path, monkeypatch):
        from repro.telemetry import summarize_run
        from repro.telemetry.manifest import SWITCH_VARS

        for var in SWITCH_VARS:
            monkeypatch.delenv(var, raising=False)
        with start_run(tmp_path, "train") as run:
            run.recorder.emit("note", message="x")
        assert read_manifest(tmp_path).switches == dict.fromkeys(SWITCH_VARS)
        assert "switches:" not in summarize_run(tmp_path)

    def test_non_json_config_values_stringified(self, tmp_path):
        with start_run(tmp_path, "train", config={"seeds": range(2)}):
            pass
        raw = json.loads((tmp_path / MANIFEST_FILENAME).read_text())
        assert raw["config"]["seeds"] == str(range(2))

    def test_rerun_truncates_previous_stream(self, tmp_path):
        with start_run(tmp_path, "train") as run:
            run.recorder.emit("note", message="old")
        with start_run(tmp_path, "train") as run:
            run.recorder.emit("note", message="new")
        messages = [r["message"] for r in load_stream(run.stream_path)]
        assert messages == ["new"]

    def test_read_manifest_missing_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_manifest(tmp_path)

    def test_truncated_manifest_names_its_file(self, tmp_path):
        with start_run(tmp_path, "train", seeds=(0,)):
            pass
        path = tmp_path / MANIFEST_FILENAME
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ValueError) as caught:
            read_manifest(tmp_path)
        assert str(caught.value).startswith(str(path))
        assert isinstance(caught.value.__cause__, json.JSONDecodeError)

    def test_wrong_typed_manifest_names_its_file(self, tmp_path):
        path = tmp_path / MANIFEST_FILENAME
        path.write_text("[1, 2]")
        with pytest.raises(ValueError) as caught:
            read_manifest(tmp_path)
        assert str(caught.value).startswith(str(path))
        assert isinstance(caught.value.__cause__, TypeError)

