"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scenario_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.topology == "Abilene"
        assert args.pattern == "poisson"
        assert args.ingress == 2

    def test_evaluate_requires_policy_or_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate"])

    def test_evaluate_policy_and_algorithm_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["evaluate", "--policy", "x.npz", "--algorithm", "sp"]
            )

    def test_eval_dtype_flag(self):
        for command in ("train -o p.npz", "evaluate --algorithm sp",
                        "compare", "serve-bench"):
            args = build_parser().parse_args(
                command.split() + ["--eval-dtype", "f32"]
            )
            assert args.eval_dtype == "f32"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "--algorithm", "sp",
                                       "--eval-dtype", "f16"])

    def test_eval_width_is_not_a_flag(self):
        for command in ("train -o p.npz", "compare"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(command.split() + ["--eval-batch", "4"])

    def test_eval_episodes_must_be_positive(self, capsys):
        parser = build_parser()
        assert parser.parse_args(
            ["train", "-o", "p.npz", "--eval-episodes", "5"]
        ).eval_episodes == 5
        for bad in ("0", "-3"):
            with pytest.raises(SystemExit):
                parser.parse_args(["train", "-o", "p.npz", "--eval-episodes", bad])
            assert "must be >= 1" in capsys.readouterr().err

    def test_serve_bench_defaults(self):
        args = build_parser().parse_args(["serve-bench"])
        assert args.serve_batch == 32
        assert args.serve_deadline_ms == 2.0
        assert args.rate == 0.0
        assert args.swap_every == 0
        assert args.queue_capacity is None
        assert args.eval_dtype is None


class TestTopologyCommand:
    def test_table(self, capsys):
        assert main(["topology"]) == 0
        out = capsys.readouterr().out
        assert "Abilene" in out
        assert "Interroute" in out
        assert "2 / 3 / 2.55" in out

    def test_single_topology_details(self, capsys):
        assert main(["topology", "--name", "Abilene"]) == 0
        out = capsys.readouterr().out
        assert "11 nodes, 14 links" in out
        assert "v8" in out


class TestEvaluateCommand:
    def test_baseline_evaluation(self, capsys):
        code = main([
            "evaluate", "--algorithm", "sp",
            "--pattern", "fixed", "--ingress", "1",
            "--horizon", "300", "--eval-seeds", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "success=" in out
        assert "decision time" in out


class TestTrainEvaluateRoundtrip:
    def test_train_then_evaluate(self, tmp_path, capsys):
        policy_path = str(tmp_path / "policy.npz")
        code = main([
            "train", "-o", policy_path,
            "--pattern", "fixed", "--ingress", "1",
            "--horizon", "200", "--seeds", "1", "--updates", "3",
            "--quiet",
        ])
        assert code == 0
        assert "Saved best policy" in capsys.readouterr().out

        code = main([
            "evaluate", "--policy", policy_path,
            "--pattern", "fixed", "--ingress", "1",
            "--horizon", "200", "--eval-seeds", "1",
        ])
        assert code == 0
        assert "success=" in capsys.readouterr().out


class TestServeBenchCommand:
    def test_open_loop_reports_latency(self, capsys):
        code = main([
            "serve-bench", "--pattern", "fixed", "--ingress", "1",
            "--horizon", "200", "--requests", "64", "--pool", "16",
            "--rate", "3000", "--serve-batch", "8",
            "--eval-dtype", "f32",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "open loop @ 3000 req/s" in out
        assert "dtype f32" in out
        assert "latency p50" in out

    def test_eval_dtype_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_EVAL_DTYPE", "f32")
        code = main([
            "serve-bench", "--pattern", "fixed", "--ingress", "1",
            "--horizon", "200", "--requests", "32", "--pool", "16",
            "--serve-batch", "8",
        ])
        assert code == 0
        assert "dtype f32" in capsys.readouterr().out


class TestTelemetryCommand:
    def test_summarize_requires_directory(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["telemetry", "summarize"])

    def test_train_with_telemetry_then_summarize(self, tmp_path, capsys):
        policy_path = str(tmp_path / "policy.npz")
        run_dir = tmp_path / "run"
        code = main([
            "train", "-o", policy_path,
            "--pattern", "fixed", "--ingress", "1",
            "--horizon", "200", "--seeds", "1", "--updates", "3",
            "--quiet", "--telemetry", str(run_dir),
        ])
        assert code == 0
        assert "Telemetry written to" in capsys.readouterr().out
        assert (run_dir / "manifest.json").exists()
        assert (run_dir / "metrics.jsonl").exists()

        # Every record in the stream validates against the schema.
        from repro.telemetry import load_stream

        records = load_stream(run_dir / "metrics.jsonl")
        kinds = {r["kind"] for r in records}
        assert "train_update" in kinds
        assert "train_summary" in kinds

        code = main(["telemetry", "summarize", str(run_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Telemetry run" in out
        assert "name=train" in out
        assert "training:" in out
        assert "best agent" in out

    def test_serve_bench_with_telemetry(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        code = main([
            "serve-bench", "--pattern", "fixed", "--ingress", "1",
            "--horizon", "200", "--requests", "128", "--pool", "32",
            "--serve-batch", "8", "--swap-every", "50",
            "--telemetry", str(run_dir),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "serve-bench: saturation" in out
        assert "served 128 shed 0" in out
        assert "swaps 2" in out

        code = main(["telemetry", "summarize", str(run_dir)])
        assert code == 0
        assert "serving:" in capsys.readouterr().out

    def test_evaluate_with_telemetry(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        code = main([
            "evaluate", "--algorithm", "sp",
            "--pattern", "fixed", "--ingress", "1",
            "--horizon", "300", "--eval-seeds", "2",
            "--telemetry", str(run_dir),
        ])
        assert code == 0
        capsys.readouterr()
        code = main(["telemetry", "summarize", str(run_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "simulation: 2 runs" in out
        assert "evaluation[sp]: 2 seeds" in out
