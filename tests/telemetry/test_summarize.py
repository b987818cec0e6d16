"""Tests for stream loading and run-report rendering."""

import pytest

from repro.telemetry import (
    JsonlRecorder,
    SchemaError,
    load_stream,
    start_run,
    summarize_run,
)


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestLoadStream:
    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "m.jsonl"
        _write_lines(path, ['{"kind": "note", "message": "a"}', "", "  "])
        assert len(load_stream(path)) == 1

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        _write_lines(path, ['{"kind": "note", "message": "a"}', "{broken"])
        with pytest.raises(SchemaError, match=r":2: invalid JSON"):
            load_stream(path)

    def test_schema_violation_names_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        _write_lines(path, ['{"kind": "note"}'])
        with pytest.raises(SchemaError, match=r":1: note record missing"):
            load_stream(path)

    def test_unknown_kind_names_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        _write_lines(path, ['{"kind": "note", "message": "a"}', '{"kind": "mystery"}'])
        with pytest.raises(SchemaError, match=r":2: .*mystery"):
            load_stream(path)


class TestSummarizeRun:
    def test_renders_training_report(self, tmp_path):
        with start_run(tmp_path, "train", config={"updates": 2}, seeds=(0,)) as run:
            for update in (1, 2):
                run.recorder.emit(
                    "train_update", update=update, policy_loss=0.5 / update,
                    value_loss=10.0 / update, entropy=1.3,
                    mean_return=-3.0, kl=1e-4, wall_seconds=0.01,
                )
            run.recorder.emit(
                "seed_result", seed=0, mean_episode_reward=-2.5, episodes=3
            )
            run.recorder.emit(
                "train_summary", algorithm="acktr", seeds=1, best_seed=0
            )
        report = summarize_run(tmp_path)
        assert "name=train" in report
        assert "updates=2" in report          # config knob
        assert "training: 2 updates" in report
        assert "trust region" in report
        assert "seed 0: eval_reward -2.50" in report
        assert "best agent: seed 0 of 1 (acktr)" in report

    def test_renders_sim_and_eval_report(self, tmp_path):
        with start_run(tmp_path, "evaluate") as run:
            run.recorder.emit(
                "sim_run", flows_generated=10, flows_succeeded=4,
                flows_dropped=4, flows_active=2, success_ratio=0.5,
                drop_reasons={"deadline_expired": 4}, decisions=30,
                horizon=100.0,
                delay={"count": 4.0, "min": 5.0, "p50": 7.0,
                       "mean": 8.0, "p95": 12.0, "max": 12.0},
            )
            run.recorder.emit(
                "eval_aggregate", name="SP", seeds=1, mean_success=0.5,
                mean_delay=8.0, delay_seeds_excluded=0,
            )
        report = summarize_run(tmp_path)
        assert "simulation: 1 runs" in report
        assert "~2 in flight" in report
        assert "deadline_expired=4" in report
        assert "p95 12.00" in report
        assert "evaluation[SP]: 1 seeds" in report

    def test_excluded_delay_seeds_surfaced(self, tmp_path):
        with start_run(tmp_path, "evaluate") as run:
            run.recorder.emit(
                "eval_aggregate", name="SP", seeds=3, mean_success=0.1,
                mean_delay=20.0, delay_seeds_excluded=2,
            )
        assert "2 seed(s) excluded from delay" in summarize_run(tmp_path)

    def test_nan_aggregate_renders_na(self, tmp_path):
        with start_run(tmp_path, "evaluate") as run:
            run.recorder.emit(
                "eval_aggregate", name="SP", seeds=0,
                mean_success=float("nan"), mean_delay=float("nan"),
                delay_seeds_excluded=0,
            )
        report = summarize_run(tmp_path)
        assert "success n/a" in report
        assert "delay n/a" in report

    def test_lockstep_eval_line_reports_width_as_derived(self, tmp_path):
        with start_run(tmp_path, "train") as run:
            for width, episodes in ((1, 1), (5, 5)):
                run.recorder.emit(
                    "eval_batch", batch=width, episodes=episodes, rounds=40,
                    decisions=40 * width, tie_fallbacks=0,
                )
        report = summarize_run(tmp_path)
        assert "lockstep eval: 2 run(s) at width [1, 5]" in report
        assert "derived from the episode count" in report
        assert " batch=" not in report

    def test_missing_manifest_tolerated(self, tmp_path):
        recorder = JsonlRecorder(tmp_path / "metrics.jsonl")
        recorder.emit("note", message="stream only")
        recorder.close()
        assert "manifest: (missing)" in summarize_run(tmp_path)

    def test_missing_stream_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            summarize_run(tmp_path)

    def test_train_phases_round_trip_names_the_optimizer_schedule(self, tmp_path):
        """An ACKTR run's ``train_phases`` record states which schedule
        the trainer picked; the stream validates and the report shows it."""
        from repro.profiling import PhaseAccumulator
        from repro.rl.acktr import ACKTRConfig, ACKTRTrainer
        from tests.rl.toy_envs import ContextualBanditEnv

        with start_run(tmp_path, "train") as run:
            trainer = ACKTRTrainer(
                ContextualBanditEnv, ACKTRConfig(n_steps=8, n_envs=2),
                seed=0, recorder=run.recorder,
            )
            trainer.attach_profiler(PhaseAccumulator())
            trainer.kfac_threads = 1
            trainer.train(3)
        (record,) = [
            r for r in load_stream(run.recorder.path) if r["kind"] == "train_phases"
        ]
        assert record["kfac_threads"] == 1
        assert record["fused_backward_active"] is trainer.fused_backward_active
        assert record["precondition"] > 0.0
        assert (
            "optimizer schedule: kfac_threads=1 "
            f"fused_backward_active={trainer.fused_backward_active}"
            in summarize_run(tmp_path)
        )
