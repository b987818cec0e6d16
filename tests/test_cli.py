"""Tests for the command-line interface."""

import hashlib

import pytest

from repro.cli import build_parser, main


#: (command, flag, a value it takes, values it refuses, the bound named).
_NUMERIC_ARGUMENTS = [
    ("train -o p.npz", "--seeds", "2", ("0", "-3"), ">= 1"),
    ("train -o p.npz", "--updates", "2", ("0", "-3"), ">= 1"),
    ("evaluate --algorithm sp", "--eval-seeds", "2", ("0", "-3"), ">= 1"),
    ("compare", "--seeds", "2", ("0", "-3"), ">= 1"),
    ("compare", "--updates", "2", ("0", "-3"), ">= 1"),
    ("compare", "--eval-seeds", "2", ("0", "-3"), ">= 1"),
    ("serve-bench", "--requests", "2", ("0", "-3"), ">= 1"),
    ("serve-bench", "--pool", "2", ("0", "-3"), ">= 1"),
    ("serve-bench", "--serve-batch", "2", ("0", "-3"), ">= 1"),
    ("serve-bench", "--queue-capacity", "2", ("0", "-3"), ">= 1"),
    ("serve-bench", "--serve-deadline-ms", "0.5", ("0", "-1", "nan"), "> 0"),
    ("serve-bench", "--swap-every", "0", ("-1",), ">= 0"),
    ("serve-bench", "--rate", "0", ("-5", "nan"), ">= 0"),
    ("train -o p.npz", "--workers", "2", ("0", "-3"), ">= 1"),
    ("train -o p.npz", "--stat-interval", "2", ("0", "-3"), ">= 1"),
    ("evaluate --algorithm sp", "--ingress", "2", ("0", "-3"), ">= 1"),
    ("evaluate --algorithm sp", "--horizon", "300", ("0", "-1", "nan"), "> 0"),
    ("evaluate --algorithm sp", "--deadline", "50", ("0", "nan"), "> 0"),
    ("evaluate --algorithm sp", "--capacity-seed", "3", ("-1",), ">= 0"),
    ("evaluate --algorithm sp", "--fault-seed", "3", ("-1",), ">= 0"),
    ("serve-bench", "--arrival-seed", "3", ("-1",), ">= 0"),
]


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

    @pytest.mark.parametrize(
        "command, flag, good, bad, bound",
        _NUMERIC_ARGUMENTS,
        ids=[f"{command}-{flag}" for command, flag, *_ in _NUMERIC_ARGUMENTS],
    )
    def test_seed_and_update_counts_must_be_positive(
        self, capsys, command, flag, good, bad, bound
    ):
        """Every numeric argument is checked at parse time and a bad value
        exits 2 with usage.  ``--seeds 0`` used to die in best-agent
        selection with a bare ``max()`` error, ``--eval-seeds 0`` printed
        all-``n/a`` rows and exited 0, and ``--updates -3`` trained nothing
        and saved; ``--requests 0``, ``--workers 0`` or ``--horizon nan``
        ended in a ``ValueError`` traceback once the run was built, as a
        negative ``--capacity-seed``, ``--fault-seed`` or
        ``--arrival-seed`` did in numpy's seeding, and ``--rate -5`` or
        ``nan`` silently ran closed-loop saturation."""
        parser = build_parser()
        parsed = getattr(parser.parse_args(command.split() + [flag, good]),
                         flag[2:].replace("-", "_"))
        assert parsed == type(parsed)(good)
        for value in bad:
            with pytest.raises(SystemExit) as exit_info:
                parser.parse_args(command.split() + [flag, value])
            assert exit_info.value.code == 2
            assert f"must be {bound}" in capsys.readouterr().err

    def test_serve_bench_defaults(self):
        args = build_parser().parse_args(["serve-bench"])
        assert args.serve_batch == 32
        assert args.serve_deadline_ms == 2.0
        assert args.rate == 0.0
        assert args.swap_every == 0
        assert args.queue_capacity is None


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

    @pytest.mark.parametrize(
        "argv, first_line, digest",
        [
            ([], "== Table I: Real-world network topologies ==",
             "5fa1a763af1327b0b037678d39081aae28fde95756e8cd101b209fa0e2db395d"),
            (["--name", "Abilene"],
             "Abilene: 11 nodes, 14 links, degree 2/3/2.55, diameter 7.45",
             "0b454e63490091d8c47c1f7495aa285a1cf1870ff563902d1b2997221c2c04d7"),
            (["--name", "BT Europe"],
             "BT Europe: 24 nodes, 37 links, degree 1/13/3.08, diameter 22.08",
             "d8ae91a468915c160bff09cdde92dc366350aa181550b524c9ab2a88a4aabded"),
            (["--name", "China Telecom"],
             "China Telecom: 42 nodes, 66 links, degree 1/20/3.14, diameter 30.73",
             "58df7beec352dacdc1a6160241593ca2a1a5aa18909fd3986e03a898614b5a3c"),
            (["--name", "Interroute"],
             "Interroute: 110 nodes, 158 links, degree 1/7/2.87, diameter 36.33",
             "367db0d2889062ac44ba0ed9a00db61739a8764e0c199b691e8ea63fea582f78"),
        ],
        ids=["table", "Abilene", "BT Europe", "China Telecom", "Interroute"],
    )
    def test_output_is_pinned(self, argv, first_line, digest, capsys):
        """The whole printout, byte for byte: the table, and per topology
        its unit capacities and each node's neighbours."""
        assert main(["topology", *argv]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == first_line
        assert hashlib.sha256(out.encode()).hexdigest() == digest, out


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
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "open loop @ 3000 req/s" in out
        assert "latency p50" in out

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


def _write_truncated_policy(path):
    from repro.rl.policy import ActorCriticPolicy

    ActorCriticPolicy(16, 4, hidden=(8,), rng=0).save(path)
    path.write_bytes(path.read_bytes()[:100])


class TestBadInputFiles:
    """A missing or malformed input file ends the command with exit 2
    and the reader's message (naming the file) on one stderr line; it
    used to end in a traceback with exit 1."""

    def _fails_cleanly(self, argv, capsys, path):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        err = captured.err.strip()
        assert "Traceback" not in captured.err + captured.out
        assert len(err.splitlines()) == 1
        assert err.startswith("repro: error: ")
        assert str(path) in err
        return err

    def test_summarize_a_missing_directory(self, tmp_path, capsys):
        missing = tmp_path / "no-such-run"
        self._fails_cleanly(["telemetry", "summarize", str(missing)], capsys, missing)

    def test_summarize_a_stream_with_an_unknown_kind(self, tmp_path, capsys):
        stream = tmp_path / "metrics.jsonl"
        stream.write_text('{"kind": "mystery"}\n')
        err = self._fails_cleanly(
            ["telemetry", "summarize", str(tmp_path)], capsys, stream
        )
        assert ":1:" in err and "mystery" in err

    @pytest.mark.parametrize("command", ["evaluate", "serve-bench"])
    @pytest.mark.parametrize("damage", ["missing", "truncated"])
    def test_policy_flag_on_a_bad_checkpoint(self, tmp_path, capsys, command, damage):
        path = tmp_path / "policy.npz"
        if damage == "truncated":
            _write_truncated_policy(path)
        argv = [command, "--policy", str(path), "--horizon", "100"]
        self._fails_cleanly(argv, capsys, path)


class TestBadArguments:
    """A topology the zoo does not have, a serving config the engine
    refuses and a policy trained for another observation size end the
    command as a bad argument does: exit 2 and one ``error:`` line, no
    traceback."""

    def _usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err + captured.out
        return captured.err.strip().splitlines()[-1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["topology", "--name", "Nope"],
            ["topology", "--name", "abilene"],
            ["evaluate", "--algorithm", "sp", "--topology", "Nope"],
        ],
        ids=["topology-unknown", "topology-lowercase", "evaluate-unknown"],
    )
    def test_unknown_topology(self, argv, capsys):
        err = self._usage_error(argv, capsys)
        assert "invalid choice" in err
        assert "'Abilene', 'BT Europe', 'China Telecom', 'Interroute'" in err

    def test_serving_config_the_engine_refuses(self, capsys):
        argv = ["serve-bench", "--queue-capacity", "4", "--serve-batch", "32"]
        err = self._usage_error(argv, capsys)
        assert err == "repro: error: --queue-capacity (4) must be >= --serve-batch (32)"

    def test_a_deadline_too_small_for_seconds_names_the_flag(self, capsys):
        """1e-321 ms passes the flag's > 0 check but is 0.0 in seconds."""
        argv = ["serve-bench", "--serve-deadline-ms", "1e-321"]
        err = self._usage_error(argv, capsys)
        assert err == "repro: error: --serve-deadline-ms / 1000 must be > 0, got 0.0"

    @pytest.mark.parametrize("command", ["evaluate", "serve-bench"])
    def test_policy_for_another_observation_size(self, tmp_path, capsys, command):
        from repro.rl.policy import ActorCriticPolicy

        # Abilene's degree is 3: 4 * 3 + 4 observation values, 4 actions.
        path = tmp_path / "abilene.npz"
        ActorCriticPolicy(16, 4, hidden=(8,), rng=0).save(path)
        argv = [command, "--policy", str(path), "--topology", "Interroute",
                "--horizon", "100"]
        err = self._usage_error(argv, capsys)
        assert err == (
            f"repro: error: {path}: the policy takes 16-value observations, "
            "but Interroute gives 32-value ones"
        )
