"""Switches that were deleted stay deleted.

Each of these was an option nobody set (ISSUE 20): the pool's start
method and phase attribution were environment variables, the lint
baseline four CLI flags and three ``run_lint`` parameters, the
observation hand-off a ``copy=`` argument and an env attribute, and two
trainer arguments had no caller.  ISSUE 24 added the fan-out's
worker-stream plumbing (now inside ``run_tasks``), the zero-arg training
factory, the hyperparameters ``TrainingConfig`` / ``SuiteConfig`` copied
from ``ACKTRConfig``, two options only tests set and the lint's subset
mode.  The per-task timeout is an argument of ``run_tasks`` only, and
the deployed central DRL reads its horizon from the simulator.
Inference decides greedily: no inference driver takes an rng, a seed or
a decision mode, and the lockstep runner spawns no per-episode streams
(``_episode_rngs``).  The deployment has no precision switch: its agents
decide on a certified float32 cast with an exact float64 fallback, so
neither the coordinator, its agents nor ``repro evaluate`` take a dtype;
lockstep evaluation and serving decide through the same certificate, so
no inference path takes one (``ServingConfig.dtype`` survives as a field
that accepts only ``"f64"``).
The linter (``tools/lint.py``) has one text report and runs every
rule: its format, output, subset and explain flags, the matching
``run_lint`` keywords and the config object are gone.  The values the
paper fixes — the tanh networks, the A2C/ACKTR coefficients, the
rewards — and the fault-window shape, the central DRL's refresh
interval and three scenario/telemetry switches that only their defaults
reached are module constants, or went with the code only another value
ran.  So are the simulator's keep duration and its sanitizer field:
``REPRO_CHECK_INVARIANTS`` is the one sanitizer switch.  The linter left
the package, so ``repro lint`` is no command.  The names below
may appear only here and in ``tests/test_stay_deleted.py``, whose tree
scan looks for them everywhere else.
"""

from __future__ import annotations

import dataclasses
import inspect

import numpy as np
import pytest

from repro.baselines import central_drl
from repro.baselines.central_drl import (
    CentralDRLPolicy,
    CentralizedCoordinationEnv,
    CentralizedEnvBuilder,
    train_central_coordinator,
)
from repro.cli import build_parser
from repro.core.agent import DistributedCoordinator
from repro.core import rewards
from repro.core.env import CoordinationEnvConfig, ServiceCoordinationEnv
from repro.core.rewards import RewardFunction
from repro.core.trainer import TrainingConfig
from repro.eval.runner import (
    AlgorithmSuite,
    SuiteConfig,
    _EvalSeedTask,
    _run_grid,
    build_algorithm_suite,
    evaluate_policy_on_scenario,
)
from repro.eval.scenarios import base_scenario, build_network, make_traffic_factory
from repro.faults import FaultScenarioConfig
from repro.nn import init, layers, mlp
from repro.nn.layers import Dense
from repro.nn.mlp import MLP, fused_backward_is_exact
from repro.parallel import run_tasks
from repro.rl.a2c import A2CConfig, A2CTrainer
from repro.rl.acktr import ACKTRConfig
from repro.rl.batched import BatchedEpisodeRunner
from repro.rl.policy import ActorCriticPolicy
from repro.rl.training import _SeedTask, evaluate_policy, train_multi_seed
from repro.serving import ServingConfig, ServingEngine, serve_workload
from repro.sim.config import SimulationConfig
from repro.sim.metrics import DropReason
from repro.sim.simulator import Simulator
from repro.telemetry import JsonlRecorder, load_stream

from tests.conftest import make_env_config, make_flow_specs, make_simple_catalog
from tests.rl.toy_envs import ContextualBanditEnv
from tools.lint import build_parser as lint_parser
from tools.lint import lint_paths, lint_source, run_lint
from tests.topology.networks import line_network


def _square(task, recorder):
    return task * task


def _env_config():
    return make_env_config(line_network(3), make_simple_catalog())


class TestEnvironmentVariablesAreNotRead:
    def test_mp_start_is_ignored(self, monkeypatch):
        # Read, this value raised and the batch fell back to serial.
        monkeypatch.setenv("REPRO_MP_START", "nonsense")
        outcome = run_tasks(_square, [1, 2, 3], workers=2)
        assert outcome.values == [1, 4, 9]
        assert outcome.timing.mode == "process-pool"

    def test_profile_phases_is_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE_PHASES", "1")
        trainer = A2CTrainer(
            lambda: ContextualBanditEnv(), A2CConfig(n_steps=4, n_envs=2), seed=0
        )
        assert trainer.profiler is None


class TestObservationHandOffHasNoSwitch:
    def test_build_takes_no_copy_argument(self):
        config = _env_config()
        env = ServiceCoordinationEnv(config, seed=0)
        sim = Simulator(
            config.network, config.catalog, make_flow_specs([1.0]), config.sim_config
        )
        decision = sim.next_decision()
        with pytest.raises(TypeError):
            env.observation_adapter.build(decision, sim, copy=False)

    def test_env_has_no_copy_observations(self):
        env = ServiceCoordinationEnv(_env_config(), seed=0)
        assert not hasattr(env, "copy_observations")
        assert not hasattr(env.clone(), "copy_observations")


class TestLintHasNoBaseline:
    @pytest.mark.parametrize(
        "flag",
        [
            ["--baseline", "b.json"],
            ["--no-baseline"],
            ["--write-baseline"],
            ["--update-baseline"],
        ],
        ids=lambda flag: flag[0],
    )
    def test_removed_flags_are_argparse_errors(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            lint_parser().parse_args(["src/repro", *flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kwargs",
        [{"write_baseline": True}, {"refresh_baseline": True}, {"baseline_path": "b.json"}],
        ids=lambda kwargs: next(iter(kwargs)),
    )
    def test_run_lint_takes_no_baseline_arguments(self, kwargs, tmp_path):
        with pytest.raises(TypeError):
            run_lint([str(tmp_path)], **kwargs)


class TestTrainerConstants:
    def test_advantage_normalisation_is_not_a_config_field(self):
        with pytest.raises(TypeError):
            A2CConfig(normalize_advantages=False)

    def test_train_takes_no_log_every(self):
        trainer = A2CTrainer(
            lambda: ContextualBanditEnv(), A2CConfig(n_steps=4, n_envs=2), seed=0
        )
        with pytest.raises(TypeError):
            trainer.train(1, log_every=1)


def _field_names(cls):
    return {field.name for field in dataclasses.fields(cls)}


class TestFanOutContractLivesInRunTasks:
    def test_run_tasks_takes_no_task_recorders(self):
        assert "task_recorders" not in inspect.signature(run_tasks).parameters

    @pytest.mark.parametrize("task_cls", [_SeedTask, _EvalSeedTask])
    def test_tasks_carry_no_recorder(self, task_cls):
        assert "recorder" not in _field_names(task_cls)

    def test_zero_arg_env_factory_is_a_type_error(self):
        env = ContextualBanditEnv()
        with pytest.raises(TypeError, match="EnvBuilder"):
            train_multi_seed(lambda: env, seeds=(0,), updates_per_seed=1)


class TestOneConfigCarriesTheHyperparameters:
    def test_training_config_copies_no_acktr_field(self):
        copied = {
            "n_envs", "n_steps", "learning_rate", "gamma", "entropy_coef",
            "value_loss_coef", "kl_clip", "max_grad_norm", "stat_interval",
        }
        assert not copied & _field_names(TrainingConfig)
        assert not hasattr(TrainingConfig, "to_acktr_config")
        assert TrainingConfig().rl == ACKTRConfig()

    def test_suite_config_respells_no_training_field(self):
        respelled = {
            "train_seeds", "train_updates", "n_envs", "n_steps", "workers",
            "eval_dtype", "stat_interval", "eval_seeds",
        }
        assert not respelled & _field_names(SuiteConfig)


class TestOptionsOnlyTestsSet:
    def test_central_rules_are_always_argmax_targets(self):
        config = _env_config()
        policy = ActorCriticPolicy(2 * 3 + 1 + 1, 3, hidden=(4,), rng=0)
        with pytest.raises(TypeError):
            CentralDRLPolicy(
                config.network, config.catalog, policy, stochastic_rules=True
            )

    def test_success_series_has_no_cap(self):
        with pytest.raises(TypeError):
            SimulationConfig(metrics_series_cap=16)


class TestLintHasOneMode:
    def test_flow_flag_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            lint_parser().parse_args(["src/repro", "--flow"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_run_lint_takes_no_flow_argument(self, tmp_path):
        with pytest.raises(TypeError):
            run_lint([str(tmp_path)], flow=True)


class TestLintHasOneReport:
    @pytest.mark.parametrize(
        "flag",
        [
            ["--format", "json"],
            ["--output", "report.txt"],
            ["--select", "REP001"],
            ["--explain", "REP004"],
        ],
        ids=lambda flag: flag[0],
    )
    def test_removed_flags_are_argparse_errors(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            lint_parser().parse_args(["src/repro", *flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kwargs",
        [{"output_format": "json"}, {"select": ("REP001",)}, {"config": None}],
        ids=lambda kwargs: next(iter(kwargs)),
    )
    def test_run_lint_takes_only_paths_and_root(self, kwargs, tmp_path):
        with pytest.raises(TypeError):
            run_lint([str(tmp_path)], **kwargs)
        assert list(inspect.signature(run_lint).parameters) == ["paths", "root"]

    def test_lint_source_and_lint_paths_take_no_config(self, tmp_path):
        with pytest.raises(TypeError):
            lint_source("x = 1\n", config=None)
        with pytest.raises(TypeError):
            lint_paths([str(tmp_path)], config=None)


class TestTimeoutLivesInRunTasks:
    def test_training_config_has_no_seed_timeout(self):
        with pytest.raises(TypeError):
            TrainingConfig(seed_timeout=1)

    @pytest.mark.parametrize(
        "fn",
        [
            train_multi_seed,
            evaluate_policy_on_scenario,
            AlgorithmSuite.compare,
            train_central_coordinator,
            _run_grid,
        ],
        ids=lambda fn: fn.__name__,
    )
    def test_no_timeout_pass_through(self, fn):
        assert "timeout" not in inspect.signature(fn).parameters

    def test_run_tasks_keeps_it(self):
        assert "timeout" in inspect.signature(run_tasks).parameters


def test_deployed_central_drl_takes_no_horizon():
    config = _env_config()
    policy = ActorCriticPolicy(2 * 3 + 1 + 1, 3, hidden=(4,), rng=0)
    with pytest.raises(TypeError):
        CentralDRLPolicy(config.network, config.catalog, policy, horizon=100.0)


class TestInferenceDecidesGreedily:
    """Sampling is exploration during training; every inference driver
    decides by argmax and takes no randomness."""

    @pytest.mark.parametrize(
        "fn",
        [
            DistributedCoordinator,
            CentralDRLPolicy,
            BatchedEpisodeRunner,
            evaluate_policy,
            ServingEngine,
            serve_workload,
            ActorCriticPolicy.select_actions,
        ],
        ids=lambda fn: fn.__qualname__,
    )
    def test_takes_no_rng_seed_or_mode(self, fn):
        taken = set(inspect.signature(fn).parameters)
        assert not {"rng", "rngs", "seed", "deterministic"} & taken

    def test_act_single_has_one_greedy_mode(self):
        """``act_single`` keeps ``deterministic`` only as a spelling of
        its one mode: no rng to sample with, no workspace to pick."""
        taken = set(inspect.signature(ActorCriticPolicy.act_single).parameters)
        assert taken == {"self", "obs", "deterministic"}
        policy = ActorCriticPolicy(3, 2, hidden=(4,), rng=0)
        with pytest.raises(ValueError):
            policy.act_single(np.zeros(3), deterministic=False)


class TestDeploymentHasNoPrecisionSwitch:
    @pytest.mark.parametrize(
        "fn",
        [
            DistributedCoordinator,
            CentralDRLPolicy,
            ActorCriticPolicy.act_single,
            ActorCriticPolicy.select_actions,
            BatchedEpisodeRunner,
            ServingEngine,
        ],
        ids=lambda fn: fn.__qualname__,
    )
    def test_takes_no_dtype_or_inference(self, fn):
        taken = set(inspect.signature(fn).parameters)
        assert not {"dtype", "inference"} & taken

    def test_coordinator_rejects_a_dtype(self):
        config = _env_config()
        policy = ActorCriticPolicy(2 * 2 + 4, 3, hidden=(4,), rng=0)
        with pytest.raises(TypeError):
            DistributedCoordinator(
                config.network, config.catalog, policy, dtype="f32"
            )

    def test_evaluate_takes_no_eval_dtype(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["evaluate", "--algorithm", "sp", "--eval-dtype", "f32"]
            )
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestInferenceHasNoPrecisionSwitch:
    @pytest.mark.parametrize(
        "fn",
        [evaluate_policy, train_multi_seed, BatchedEpisodeRunner],
        ids=lambda fn: fn.__qualname__,
    )
    def test_takes_no_dtype(self, fn):
        taken = set(inspect.signature(fn).parameters)
        assert not {"dtype", "eval_dtype"} & taken

    def test_training_config_has_no_eval_dtype(self):
        assert "eval_dtype" not in _field_names(TrainingConfig)
        assert "eval_dtype" not in _field_names(_SeedTask)

    @pytest.mark.parametrize(
        "command", ["train -o p.npz", "compare", "serve-bench"]
    )
    def test_eval_dtype_is_an_argparse_error(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(command.split() + ["--eval-dtype", "f32"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_serving_config_accepts_only_f64(self):
        assert ServingConfig(dtype="f64").dtype == "f64"
        for dtype in ("f32", "float64"):
            with pytest.raises(ValueError, match="ServingConfig.dtype"):
                ServingConfig(dtype=dtype)


class TestThePapersFixedValuesAreConstants:
    """Each value below was a keyword or a field that nothing but its
    default reached: passing it is a ``TypeError`` now, and a removed
    class or member is gone."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: MLP(3, (4,), 2, activation="tanh"),
            lambda: ActorCriticPolicy(3, 2, hidden=(4,), activation="tanh"),
            lambda: fused_backward_is_exact(3, (4,), 2, 8, "tanh"),
            lambda: Dense(3, 2, init="orthogonal"),
        ],
        ids=["MLP", "ActorCriticPolicy", "fused_backward_is_exact", "Dense-init"],
    )
    def test_the_networks_are_tanh_with_one_initialiser(self, build):
        with pytest.raises(TypeError):
            build()

    def test_the_network_helpers_for_other_activations_are_gone(self):
        assert not hasattr(layers, "ReLU")
        assert not hasattr(mlp, "_ACTIVATIONS")
        assert not hasattr(init, "xavier_uniform")
        assert not hasattr(init, "zeros")

    def test_backward_does_not_accumulate(self):
        net = MLP(3, (4,), 2, rng=0)
        net.forward(np.zeros((1, 3)))
        with pytest.raises(TypeError):
            net.backward(np.zeros((1, 2)), accumulate=True)
        with pytest.raises(TypeError):
            net.dense_layers[0].backward(np.zeros((1, 4)), accumulate=True)

    @pytest.mark.parametrize(
        "field", ["gamma", "entropy_coef", "value_loss_coef", "max_grad_norm"]
    )
    def test_a2c_coefficients_are_not_fields(self, field):
        for config_cls in (A2CConfig, ACKTRConfig):
            with pytest.raises(TypeError):
                config_cls(**{field: 0.5})

    @pytest.mark.parametrize(
        "field",
        ["kl_clip", "fisher_coef", "damping", "stat_decay", "inversion_interval"],
    )
    def test_kfac_coefficients_are_not_fields(self, field):
        with pytest.raises(TypeError):
            ACKTRConfig(**{field: 1})

    def test_rewards_have_one_switch(self):
        assert not hasattr(rewards, "RewardConfig")
        assert not hasattr(RewardFunction, "validate_shaping")
        assert "reward" not in _field_names(CoordinationEnvConfig)
        with pytest.raises(TypeError):
            base_scenario(reward=None)
        assert "shaping" in _field_names(CoordinationEnvConfig)

    def test_the_simulator_never_drops_at_the_horizon(self):
        with pytest.raises(TypeError):
            SimulationConfig(drop_active_at_horizon=True)
        assert not hasattr(DropReason, "HORIZON_REACHED")
        assert "horizon_reached" not in DropReason.ALL

    @pytest.mark.parametrize(
        "field, value",
        [
            ("mean_downtime", 100.0),
            ("min_downtime", 5.0),
            ("degradation_factor", 0.25),
            ("onset_window", (0.1, 0.9)),
        ],
    )
    def test_the_fault_window_shape_is_not_a_field(self, field, value):
        with pytest.raises(TypeError):
            FaultScenarioConfig(**{field: value})

    def test_the_central_refresh_interval_is_a_constant(self):
        assert central_drl.UPDATE_INTERVAL == 50.0
        assert not hasattr(central_drl, "CentralDRLConfig")
        for fn in (
            CentralizedCoordinationEnv,
            CentralDRLPolicy,
            CentralizedEnvBuilder,
            train_central_coordinator,
            AlgorithmSuite.factories_for,
            build_algorithm_suite,
        ):
            assert "central_config" not in inspect.signature(fn).parameters

    @pytest.mark.parametrize("keyword", ["catalog", "mean_interval", "trace"])
    def test_the_base_scenario_has_fixed_traffic_and_catalog(self, keyword):
        with pytest.raises(TypeError):
            base_scenario(**{keyword: None})

    @pytest.mark.parametrize("keyword", ["mean_interval", "trace"])
    def test_the_traffic_factory_has_fixed_traffic(self, keyword):
        with pytest.raises(TypeError):
            make_traffic_factory(build_network(), **{keyword: None})

    def test_telemetry_is_always_validated(self, tmp_path):
        with pytest.raises(TypeError):
            JsonlRecorder(tmp_path / "m.jsonl", validate=False)
        (tmp_path / "m.jsonl").write_text("")
        with pytest.raises(TypeError):
            load_stream(tmp_path / "m.jsonl", validate=False)


class TestTheSanitizerAndTheKeepAreNotOptions:
    """One sanitizer switch, ``REPRO_CHECK_INVARIANTS``, and the paper's
    one-step keep: neither is a simulator field.  The linter is a tool
    beside the package, not a ``repro`` command."""

    def test_the_sweep_is_not_a_config_field(self):
        with pytest.raises(TypeError):
            SimulationConfig(check_invariants=True)

    def test_the_keep_duration_is_not_a_config_field(self):
        with pytest.raises(TypeError):
            SimulationConfig(keep_duration=2.0)

    def test_lint_is_not_a_repro_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["lint", "src/repro"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'lint'" in capsys.readouterr().err
