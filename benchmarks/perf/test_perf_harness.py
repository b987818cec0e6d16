"""Self-tests of the perf harness (not part of tier-1: ``testpaths`` is
``tests``).  Run with::

    python3 -m pytest benchmarks/perf/test_perf_harness.py

Every run here uses ``--smoke`` sizes; the whole file takes under 20 s.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
for entry in (str(REPO_ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import perf_spec  # noqa: E402
from perf_harness import fast_decile, percentile  # noqa: E402
from perf_tracing import Tracer, patched  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def run_cli(*args: str, cwd: Path = REPO_ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120, check=False,
    )


def parse(stdout: str):
    lines = stdout.splitlines()
    report = next(line for line in lines if line.startswith("report "))
    return json.loads(report[len("report "):]), json.loads(lines[-1])


def key_tree(value):
    if isinstance(value, dict):
        return {key: key_tree(item) for key, item in sorted(value.items())}
    if isinstance(value, list):
        return [key_tree(value[0])] if value else []
    return type(value).__name__


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# tracing arithmetic
# ----------------------------------------------------------------------


def test_self_time_is_duration_minus_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.root():
        clock.now = 1.0
        outer = tracer.begin()
        clock.now = 2.0
        inner = tracer.begin()
        clock.now = 4.0
        tracer.end("inner", inner)
        clock.now = 4.5
        inner = tracer.begin()
        clock.now = 5.5
        tracer.end("inner", inner)
        clock.now = 6.0
        tracer.end("outer", outer)
        clock.now = 10.0
    assert tracer.wall_s == 10.0
    assert tracer.count("inner") == 2
    assert tracer.total_s("inner") == tracer.self_s("inner") == 3.0
    assert tracer.total_s("outer") == 5.0
    assert tracer.self_s("outer") == 2.0
    # Self times plus the root's own share account for all of wall.
    assert tracer.attributed_s == 5.0
    assert tracer.unattributed_share == pytest.approx(0.5)


def test_same_name_nesting_does_not_double_count_self_time():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.root():
        outer = tracer.begin()
        clock.now = 1.0
        inner = tracer.begin()
        clock.now = 3.0
        tracer.end("layer", inner)
        clock.now = 4.0
        tracer.end("layer", outer)
    assert tracer.self_s("layer") == 4.0
    assert tracer.unattributed_share == pytest.approx(0.0)


def test_wrap_iterator_times_each_pull_and_stops_cleanly():
    clock = FakeClock()
    tracer = Tracer(clock)

    def produce():
        for item in range(3):
            clock.now += 2.0
            yield item

    with tracer.root():
        assert list(tracer.wrap_iterator("pull", produce())) == [0, 1, 2]
    assert tracer.count("pull") == 4  # three items and the exhausted pull
    assert tracer.self_s("pull") == 6.0


def test_patched_restores_and_rejects_inherited_entry_points():
    class Base:
        def call(self):
            return "base"

    class Child(Base):
        pass

    original = Base.__dict__["call"]
    with patched([(Base, "call", lambda fn: lambda self: "traced " + fn(self))]):
        assert Child().call() == "traced base"
    assert Base.__dict__["call"] is original
    with pytest.raises(KeyError):
        with patched([(Child, "call", lambda fn: fn)]):
            pass


def test_fast_decile_takes_the_good_side():
    rates = [10.0, 9.0, 11.0, 6.0, 10.5, 10.8, 7.0, 10.9, 10.7, 10.6, 4.0]
    assert fast_decile(rates, higher_is_better=True) == 10.9
    assert fast_decile(rates, higher_is_better=False) == 6.0
    assert fast_decile([3.0], higher_is_better=True) == 3.0


# ----------------------------------------------------------------------
# names and the contract file
# ----------------------------------------------------------------------


def test_names_are_well_formed_and_match_benchmark_json():
    doc = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert doc["paths"] == ["benchmarks/perf"]
    assert doc["command"] == ["python3", "benchmarks/perf/run.py"]
    assert {w["name"]: w["why"] for w in doc["workloads"]} == perf_spec.WORKLOADS
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in perf_spec.END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in doc["per_layer"]
    ] == list(perf_spec.PER_LAYER)

    names = (
        list(perf_spec.WORKLOADS)
        + [m.name for m in perf_spec.END_TO_END]
        + [name for name, _, _ in perf_spec.PER_LAYER]
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    units = [m.unit for m in perf_spec.END_TO_END] + [u for _, u, _ in perf_spec.PER_LAYER]
    assert all(UNIT.match(unit) for unit in units)
    assert all(0 < m.bound <= 0.25 for m in perf_spec.END_TO_END)
    assert "setup_s" in {m.name for m in perf_spec.END_TO_END}
    layer_names = {name for name, _, _ in perf_spec.PER_LAYER}
    assert set(perf_spec.EXCLUSIVE_CELLS) <= layer_names
    assert set(perf_spec.COUNT_CELLS) <= layer_names


# ----------------------------------------------------------------------
# the command, end to end at smoke size
# ----------------------------------------------------------------------


def test_report_schema_and_counts_are_stable_across_two_runs():
    runs = [parse(run_cli("--workload", "serve_closed_sim", "--smoke").stdout)
            for _ in range(2)]
    (report_a, result_a), (report_b, result_b) = runs
    assert set(result_a) == {"correct", "attempted", "failed", "metrics"}
    assert key_tree(report_a) == key_tree(report_b)
    assert key_tree(result_a) == key_tree(result_b)
    assert result_a["correct"] and result_a["failed"] == 0
    assert result_a["attempted"] == result_b["attempted"] >= 1
    assert list(result_a["metrics"]) == [m.name for m in perf_spec.END_TO_END]
    assert report_a["detail"]["repeat_counts"] == report_b["detail"]["repeat_counts"]
    host = report_a["host"]
    assert host["blas_threads"] == {
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"
    }
    assert {"nproc", "python", "numpy", "blas", "git_sha", "scrubbed_env"} <= set(host)
    assert "ServingConfig" in report_a["config"]


def test_traced_replay_cells_sum_to_wall_and_bypassed_layers_read_zero():
    report, result = parse(
        run_cli("--workload", "train_acktr_abilene", "--smoke", "--trace", "1").stdout
    )
    metrics = result["metrics"]
    assert list(metrics) == [name for name, _, _ in perf_spec.PER_LAYER]
    # A cell that does not apply is a plain 0, never null or NaN: the
    # layer did no work.
    for name, cell in metrics.items():
        assert isinstance(cell["value"], (int, float)), name
        assert math.isfinite(cell["value"]), name
    bypassed = [name for name in metrics if name.startswith(("serving.", "core.agent."))]
    assert bypassed and all(metrics[name]["value"] == 0 for name in bypassed)
    assert metrics["rl.acktr.updates"]["value"] > 0
    assert metrics["nn.kfac.inversion_s"]["value"] > 0

    wall = report["detail"]["replay_wall_s"]
    exclusive = sum(metrics[name]["value"] for name in perf_spec.EXCLUSIVE_CELLS)
    unattributed = metrics["harness.unattributed_share"]["value"] * wall
    assert exclusive + unattributed == pytest.approx(wall, rel=1e-9)
    assert report["detail"]["mismatched_counts"] == []
    assert result["correct"]


def test_scrubbed_variables_are_listed(monkeypatch):
    monkeypatch.setenv("REPRO_EVAL_DTYPE", "f32")
    report, _ = parse(run_cli("--workload", "serve_closed_sim", "--smoke").stdout)
    assert report["host"]["scrubbed_env"] == ["REPRO_EVAL_DTYPE"]
    assert report["config"]["ServingConfig"]["dtype"] == "f64"


def test_one_corrupted_action_fails_the_run():
    child = run_cli("--workload", "serve_closed_sim", "--smoke", "--corrupt-one-action")
    report, result = parse(child.stdout)
    assert child.returncode != 0
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert report["failures"]["action_mismatch"] >= 1


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    child = run_cli(
        "--workload", "serve_open_pool", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=tmp_path / "benchmarks" / "perf" / "run.py",
    )
    assert child.returncode != 0
    assert not child.stdout.strip()


# ----------------------------------------------------------------------
# workload internals, in process
# ----------------------------------------------------------------------


def test_fixture_with_another_digest_is_refused(monkeypatch):
    import perf_workloads

    monkeypatch.setitem(perf_workloads.FIXTURES, "abilene_acktr.npz", "0" * 64)
    with pytest.raises(perf_workloads.FixtureError, match="sha256"):
        perf_workloads.load_fixture("abilene_acktr.npz")


def test_open_loop_latency_counts_from_the_due_time(monkeypatch):
    """A generator that wakes 3 ms late hands the first batch over 3 ms
    after its last request was due; the engine answers within a fraction
    of that, so only a due-time stamp can show the stall."""
    import perf_workloads

    workload = perf_workloads.build_workload("serve_open_pool", smoke=True)
    workload.setup(0)
    stall = 0.003

    def late(self, clock, wake):
        while clock() < wake + stall:
            pass

    monkeypatch.setattr(perf_workloads.ServeOpenPool, "idle_until", late)
    repeat = workload.repeat(0)
    assert not any(repeat.failures.values()) and repeat.decisions == workload.requests
    latencies = [s for segment in repeat.segments for s in segment.latencies_s]
    assert len(latencies) == workload.requests
    assert min(latencies[: workload.config.max_batch]) >= stall
    assert percentile(latencies, 50.0) >= stall
    assert repeat.cells["harness.sched_lag_ms_p99"] >= stall * 1e3
    # The pool replay has no flows of its own: flows_per_s is the
    # decision rate in flow units.
    assert repeat.flows == pytest.approx(
        repeat.decisions / perf_spec.ABILENE_DECISIONS_PER_FLOW
    )


def test_open_loop_backlog_beyond_the_queue_waits_instead_of_being_shed(monkeypatch):
    """One 20 ms freeze is 800 arrivals against a 64-slot queue."""
    import perf_workloads
    from repro.serving.engine import ServingConfig

    workload = perf_workloads.build_workload("serve_open_pool", smoke=True)
    workload.config = ServingConfig(max_batch=32, deadline_s=0.001, queue_capacity=64)
    workload.setup(0)
    spin = perf_workloads.ServeOpenPool.idle_until
    calls = []

    def freeze_once(self, clock, wake):
        calls.append(wake)
        spin(self, clock, wake + (0.02 if len(calls) == 50 else 0.0))

    monkeypatch.setattr(perf_workloads.ServeOpenPool, "idle_until", freeze_once)
    repeat = workload.repeat(0)
    assert not any(repeat.failures.values())
    assert repeat.decisions == workload.requests
    assert repeat.cells["serving.engine.shed"] == 0
    assert repeat.cells["serving.queue.max_depth"] == 64
