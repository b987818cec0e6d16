"""Tests for the ACKTR trainer."""

import os

import numpy as np
import pytest

from repro.core.trainer import CoordinationEnvBuilder
from repro.nn.mlp import fused_backward_is_exact
from repro.parallel import CountingEnvFactory
from repro.rl import acktr
from repro.rl.acktr import ACKTRConfig, ACKTRTrainer
from repro.topology import line_network

from tests.conftest import make_env_config, make_simple_catalog
from tests.rl.toy_envs import ContextualBanditEnv


class TestACKTRConfig:
    def test_paper_defaults(self):
        cfg = ACKTRConfig()
        assert cfg.learning_rate == 0.25
        assert cfg.kl_clip == 0.001
        assert cfg.fisher_coef == 1.0
        assert cfg.gamma == 0.99

    def test_validation(self):
        with pytest.raises(ValueError):
            ACKTRConfig(kl_clip=0.0)


class TestACKTRTrainer:
    def test_update_runs(self):
        trainer = ACKTRTrainer(
            lambda: ContextualBanditEnv(),
            ACKTRConfig(n_steps=8, n_envs=2),
            seed=0,
        )
        stats = trainer.update()
        assert np.isfinite(stats.policy_loss)
        assert np.isfinite(stats.value_loss)

    def test_learns_contextual_bandit(self):
        trainer = ACKTRTrainer(
            lambda: ContextualBanditEnv(),
            ACKTRConfig(n_steps=20, n_envs=4),
            seed=0,
        )
        trainer.train(60)
        assert trainer.mean_recent_episode_reward() > 12.0

    def test_uses_kfac_optimizers(self):
        trainer = ACKTRTrainer(
            lambda: ContextualBanditEnv(),
            ACKTRConfig(n_steps=4, n_envs=1),
            seed=0,
        )
        from repro.nn.kfac import KFAC

        assert isinstance(trainer.actor_kfac, KFAC)
        assert isinstance(trainer.critic_kfac, KFAC)

    def test_reward_improves_over_training(self):
        trainer = ACKTRTrainer(
            lambda: ContextualBanditEnv(),
            ACKTRConfig(n_steps=20, n_envs=4),
            seed=0,
        )
        trainer.train(10)
        early = trainer.mean_recent_episode_reward(window=10)
        trainer.train(50)
        late = trainer.mean_recent_episode_reward(window=10)
        assert late > early + 5.0, f"no learning progress: {early} -> {late}"


class TestOptimizerPathConfig:
    def test_new_knob_defaults(self):
        cfg = ACKTRConfig()
        assert cfg.stat_interval == 1

    def test_new_knob_validation(self):
        with pytest.raises(ValueError, match="stat_interval"):
            ACKTRConfig(stat_interval=0)

    def test_schedule_is_not_configurable(self):
        """The optimizer schedule is picked by the trainer, never by a
        config field."""
        with pytest.raises(TypeError):
            ACKTRConfig(kfac_threads=2)
        with pytest.raises(TypeError):
            ACKTRConfig(fused_backward="on")


def _bandit_trainer(**overrides):
    return ACKTRTrainer(
        lambda: ContextualBanditEnv(),
        ACKTRConfig(n_steps=8, n_envs=2, **overrides),
        seed=0,
    )


def _trained(updates, **overrides):
    trainer = _bandit_trainer(**overrides)
    trainer.train(updates)
    return trainer


class TestOptimizerSchedule:
    @pytest.mark.parametrize("cores, threads", [(1, 1), (2, 2), (8, 2)])
    def test_threads_follow_usable_cores(self, monkeypatch, cores, threads):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False
        )
        assert _bandit_trainer().kfac_threads == threads


def _scheduled_weights(env_config, threads, fused):
    trainer = ACKTRTrainer(
        CountingEnvFactory(CoordinationEnvBuilder(env_config)),
        ACKTRConfig(n_steps=8, n_envs=2),
        seed=0,
    )
    trainer.kfac_threads = threads
    trainer.fused_backward_active = fused
    trainer.train(6)
    return (
        trainer.policy.actor.copy_parameters()
        + trainer.policy.critic.copy_parameters()
    )


class TestOptimizerPathBitIdentity:
    """Threads {1, 2} x fused {on, off}: overlap and fusion reschedule the
    update's work, they never reorder its arithmetic — so all four
    schedules train bitwise-equal weights (simulator invariant checks on)."""

    @pytest.fixture(scope="class")
    def env_config(self):
        network = line_network(3, node_capacity=10.0, link_capacity=10.0)
        return make_env_config(network, make_simple_catalog(), horizon=100.0)

    @pytest.fixture(scope="class")
    def serial_two_pass(self, env_config):
        return _scheduled_weights(env_config, threads=1, fused=False)

    @pytest.mark.parametrize("fused", [True, False])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_schedule_matrix_bitwise(self, env_config, serial_two_pass, threads, fused):
        assert env_config.sim_config.check_invariants
        weights = _scheduled_weights(env_config, threads, fused)
        for a, b in zip(serial_two_pass, weights):
            assert np.array_equal(a, b)

    def test_auto_probe_resolves(self):
        trainer = _bandit_trainer()
        batch = trainer.config.n_steps * trainer.config.n_envs
        assert trainer.fused_backward_active is all(
            fused_backward_is_exact(
                net.in_dim, net.hidden, net.out_dim, batch, net.activation
            )
            for net in (trainer.policy.actor, trainer.policy.critic)
        )


class TestStatInterval:
    def test_skip_cadence(self):
        """stat_interval=3 over 7 updates refreshes the Fisher statistics
        at updates 0, 3, 6 and skips the other four."""
        trainer = _trained(updates=7, stat_interval=3)
        assert trainer.fisher_stat_skips == 4
        assert trainer.actor_kfac._stat_updates == 3
        assert trainer.critic_kfac._stat_updates == 3

    def test_interval_one_never_skips(self):
        trainer = _trained(updates=5, stat_interval=1)
        assert trainer.fisher_stat_skips == 0
        assert trainer.actor_kfac._stat_updates == 5

    def test_grad_norm_recorded(self):
        trainer = ACKTRTrainer(
            lambda: ContextualBanditEnv(),
            ACKTRConfig(n_steps=8, n_envs=2),
            seed=0,
        )
        stats = trainer.update()
        assert stats.grad_norm > 0.0
        assert stats.grad_norm == trainer.actor_kfac.last_grad_norm


class TestThreadedUpdateGuard:
    """The actor update is the one task in the tree that runs on a thread.
    (Its executor's fork hook is pinned in tests/parallel/test_determinism.py,
    ahead of the pooled training it protects.)"""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_actor_inputs_are_read_only(self, monkeypatch, threads):
        """A write to an array the actor task holds raises on both
        schedules instead of racing the task's reads."""
        trainer = _bandit_trainer()
        trainer.kfac_threads = threads
        real = acktr._network_update

        def writes_its_input(network, kfac, stat_dout, loss_dout, fused):
            if network is trainer.policy.actor:
                assert not stat_dout.flags.writeable
                loss_dout *= 2.0
            return real(network, kfac, stat_dout, loss_dout, fused)

        monkeypatch.setattr(acktr, "_network_update", writes_its_input)
        with pytest.raises(ValueError, match="read-only"):
            trainer.update()
