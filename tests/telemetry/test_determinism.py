"""Telemetry streams must be deterministic across worker counts.

Workers write to worker-local sibling files that the parent merges back
in task order, so the merged stream is identical for serial and pooled
execution modulo wall-clock values (the ``canonical_stream`` view).
These tests pin that contract end-to-end through both fan-out sites.
"""

from functools import partial

import pytest

from repro.baselines.shortest_path import ShortestPathPolicy
from repro.core.trainer import CoordinationEnvBuilder
from repro.eval.runner import evaluate_policy_on_scenario
from repro.eval.scenarios import base_scenario
from repro.rl.acktr import ACKTRConfig
from repro.rl.training import train_multi_seed
from repro.telemetry import JsonlRecorder, canonical_stream, load_stream

from tests.parallel.test_determinism import BanditBuilder

SEEDS = (0, 1, 2)
UPDATES = 3


def _train_stream(tmp_path, workers):
    path = tmp_path / f"train-w{workers}.jsonl"
    recorder = JsonlRecorder(path)
    train_multi_seed(
        BanditBuilder(),
        config=ACKTRConfig(n_steps=16, n_envs=2),
        seeds=SEEDS,
        updates_per_seed=UPDATES,
        workers=workers,
        recorder=recorder,
    )
    recorder.close()
    return load_stream(path)


def _eval_stream(tmp_path, scenario, workers):
    path = tmp_path / f"eval-w{workers}.jsonl"
    recorder = JsonlRecorder(path)
    factory = partial(ShortestPathPolicy, scenario.network, scenario.catalog)
    evaluate_policy_on_scenario(
        scenario, factory, "SP", eval_seeds=(0, 1, 2, 3),
        workers=workers, recorder=recorder,
    )
    recorder.close()
    return load_stream(path)


class TestTrainingTelemetry:
    def test_deterministic_record_counts(self, tmp_path):
        records = _train_stream(tmp_path, workers=1)
        kinds = [r["kind"] for r in records]
        assert kinds.count("train_update") == len(SEEDS) * UPDATES
        assert kinds.count("seed_result") == len(SEEDS)
        assert kinds.count("train_summary") == 1
        # Phase attribution follows telemetry: one record per trainer.
        assert kinds.count("train_phases") == len(SEEDS)
        assert kinds.count("task_timing") == len(SEEDS)
        assert kinds.count("batch_timing") == 1
        # Worker files are merged in task order: per-seed records arrive
        # as contiguous, seed-ordered groups.
        assert [r["seed"] for r in records if r["kind"] == "seed_result"] == [0, 1, 2]
        updates = [r for r in records if r["kind"] == "train_update"]
        assert [r["seed"] for r in updates] == sorted(r["seed"] for r in updates)

    def test_workers_do_not_change_canonical_stream(self, tmp_path):
        serial = _train_stream(tmp_path, workers=1)
        pooled = _train_stream(tmp_path, workers=2)
        assert canonical_stream(serial) == canonical_stream(pooled)
        # Sanity: the pooled run really used the pool.
        [batch] = [r for r in pooled if r["kind"] == "batch_timing"]
        assert batch["mode"] == "process-pool"


def _selection_stream(tmp_path, workers, eval_episodes):
    """Training on a replay-capable env: the selection evaluation runs
    the lockstep runner and reports the width it derived."""
    path = tmp_path / f"select-w{workers}-e{eval_episodes}.jsonl"
    scenario = base_scenario(pattern="poisson", num_ingress=1, horizon=150.0)
    with JsonlRecorder(path) as recorder:
        train_multi_seed(
            CoordinationEnvBuilder(scenario),
            config=ACKTRConfig(n_steps=8, n_envs=2),
            seeds=SEEDS,
            updates_per_seed=1,
            eval_episodes=eval_episodes,
            workers=workers,
            recorder=recorder,
        )
    return load_stream(path)


class TestSelectionEvaluationTelemetry:
    """The width follows from the episode count, so it cannot differ
    between two runs of one configuration — the record the knob made
    run-dependent is now part of the canonical stream."""

    def test_one_eval_batch_record_per_seed_at_the_derived_width(self, tmp_path):
        serial = _selection_stream(tmp_path, workers=1, eval_episodes=5)
        pooled = _selection_stream(tmp_path, workers=2, eval_episodes=5)
        assert canonical_stream(serial) == canonical_stream(pooled)
        evals = [r for r in canonical_stream(serial) if r["kind"] == "eval_batch"]
        assert len(evals) == len(SEEDS)
        assert all(r["batch"] == 5 and r["episodes"] == 5 for r in evals)
        # Each seed's evaluation sits with that seed's records.
        kinds = [r["kind"] for r in serial if r["kind"] in ("eval_batch", "seed_result")]
        assert kinds == ["eval_batch", "seed_result"] * len(SEEDS)

    def test_single_episode_runs_one_slot(self, tmp_path):
        records = _selection_stream(tmp_path, workers=1, eval_episodes=1)
        evals = [r for r in records if r["kind"] == "eval_batch"]
        assert len(evals) == len(SEEDS)
        assert all(r["batch"] == 1 and r["max_round_batch"] == 1 for r in evals)


class TestEvaluationTelemetry:
    @pytest.fixture(scope="class")
    def scenario(self):
        return base_scenario(pattern="poisson", num_ingress=1, horizon=300.0)

    def test_workers_do_not_change_canonical_stream(self, tmp_path, scenario):
        serial = _eval_stream(tmp_path, scenario, workers=1)
        pooled = _eval_stream(tmp_path, scenario, workers=2)
        assert canonical_stream(serial) == canonical_stream(pooled)
        kinds = [r["kind"] for r in serial]
        assert kinds.count("sim_run") == 4
        assert kinds.count("eval_aggregate") == 1

    def test_no_worker_files_left_behind(self, tmp_path, scenario):
        _eval_stream(tmp_path, scenario, workers=2)
        leftovers = [
            p for p in tmp_path.iterdir() if p.name != "eval-w2.jsonl"
        ]
        assert leftovers == []
