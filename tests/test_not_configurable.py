"""Switches that were deleted stay deleted.

Each of these was an option nobody set (ISSUE 20): the pool's start
method and phase attribution were environment variables, the lint
baseline four CLI flags and three ``run_lint`` parameters, the
observation hand-off a ``copy=`` argument and an env attribute, and two
trainer arguments had no caller.  The names below may appear only here —
CI greps for them everywhere else.
"""

from __future__ import annotations

import pytest

from repro.analysis.linter import run_lint
from repro.cli import build_parser
from repro.core.env import ServiceCoordinationEnv
from repro.parallel import run_tasks
from repro.rl.a2c import A2CConfig, A2CTrainer
from repro.sim.simulator import Simulator
from repro.topology import line_network

from tests.conftest import make_env_config, make_flow_specs, make_simple_catalog
from tests.rl.toy_envs import ContextualBanditEnv


def _square(task):
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
