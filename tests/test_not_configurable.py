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
(``_episode_rngs``).  The names below may appear only here — CI greps
for them everywhere else.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.analysis.linter import run_lint
from repro.baselines.central_drl import (
    CentralDRLConfig,
    CentralDRLPolicy,
    train_central_coordinator,
)
from repro.cli import build_parser
from repro.core.agent import DistributedCoordinator, NodeAgent
from repro.core.env import ServiceCoordinationEnv
from repro.core.trainer import TrainingConfig
from repro.eval.runner import (
    AlgorithmSuite,
    SuiteConfig,
    _EvalSeedTask,
    _run_grid,
    evaluate_policy_on_scenario,
)
from repro.parallel import run_tasks
from repro.rl.a2c import A2CConfig, A2CTrainer
from repro.rl.acktr import ACKTRConfig
from repro.rl.batched import BatchedEpisodeRunner
from repro.rl.policy import ActorCriticPolicy
from repro.rl.training import _SeedTask, evaluate_policy, train_multi_seed
from repro.serving import ServingEngine, serve_workload
from repro.sim.config import SimulationConfig
from repro.sim.simulator import Simulator
from repro.topology import line_network

from tests.conftest import make_env_config, make_flow_specs, make_simple_catalog
from tests.rl.toy_envs import ContextualBanditEnv


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
            build_parser().parse_args(["lint", "src/repro", *flag])
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
        with pytest.raises(TypeError):
            CentralDRLConfig(stochastic_rules=True)

    def test_success_series_has_no_cap(self):
        with pytest.raises(TypeError):
            SimulationConfig(metrics_series_cap=16)


class TestLintHasOneMode:
    def test_flow_flag_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["lint", "src/repro", "--flow"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_run_lint_takes_no_flow_argument(self, tmp_path):
        with pytest.raises(TypeError):
            run_lint([str(tmp_path)], flow=True)


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
        CentralDRLPolicy(
            config.network, config.catalog, policy, CentralDRLConfig(), horizon=100.0
        )


class TestInferenceDecidesGreedily:
    """Sampling is exploration during training; every inference driver
    decides by argmax and takes no randomness."""

    @pytest.mark.parametrize(
        "fn",
        [
            DistributedCoordinator,
            NodeAgent,
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
