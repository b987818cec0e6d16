"""Tests for the A2C trainer."""

import numpy as np
import pytest

from repro.core.trainer import CoordinationEnvBuilder
from repro.parallel import CountingEnvFactory
from repro.rl.a2c import A2CConfig, A2CTrainer
from repro.rl.acktr import ACKTRConfig, ACKTRTrainer
from repro.topology import line_network

from tests.conftest import make_env_config, make_simple_catalog
from tests.rl.toy_envs import ContextualBanditEnv


class TestA2CConfig:
    def test_defaults_match_paper(self):
        cfg = A2CConfig()
        assert cfg.gamma == 0.99
        assert cfg.entropy_coef == 0.01
        assert cfg.value_loss_coef == 0.25
        assert cfg.max_grad_norm == 0.5
        assert cfg.n_envs == 4

    @pytest.mark.parametrize("kwargs", [
        {"gamma": 0.0},
        {"gamma": 1.5},
        {"n_steps": 0},
        {"n_envs": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            A2CConfig(**kwargs)


class TestA2CTrainer:
    def test_update_returns_stats(self):
        trainer = A2CTrainer(
            lambda: ContextualBanditEnv(),
            A2CConfig(learning_rate=0.003, n_steps=8, n_envs=2),
            seed=0,
        )
        stats = trainer.update()
        assert np.isfinite(stats.policy_loss)
        assert np.isfinite(stats.value_loss)
        assert stats.entropy > 0
        assert trainer.updates_done == 1

    def test_learns_contextual_bandit(self):
        trainer = A2CTrainer(
            lambda: ContextualBanditEnv(),
            A2CConfig(learning_rate=0.003, n_steps=20, n_envs=4),
            seed=0,
        )
        trainer.train(80)
        # Optimal is +20/episode; uniform random averages about -6.7.
        assert trainer.mean_recent_episode_reward() > 12.0

    def test_entropy_decreases_as_policy_sharpens(self):
        trainer = A2CTrainer(
            lambda: ContextualBanditEnv(),
            A2CConfig(learning_rate=0.003, n_steps=20, n_envs=4),
            seed=0,
        )
        history = trainer.train(60)
        assert history[-1].entropy < history[0].entropy

    def test_episode_history_populated(self):
        trainer = A2CTrainer(
            lambda: ContextualBanditEnv(episode_length=5),
            A2CConfig(learning_rate=0.003, n_steps=10, n_envs=2),
            seed=0,
        )
        trainer.train(5)
        # 5 updates x 10 steps = 50 steps/env; 10 episodes/env.
        assert len(trainer.episode_history) == 20

    def test_no_episodes_gives_minus_inf(self):
        trainer = A2CTrainer(
            lambda: ContextualBanditEnv(episode_length=1000),
            A2CConfig(n_steps=4, n_envs=1),
            seed=0,
        )
        assert trainer.mean_recent_episode_reward() == float("-inf")

    def test_custom_policy_accepted(self):
        from repro.rl.policy import ActorCriticPolicy

        env = ContextualBanditEnv()
        policy = ActorCriticPolicy(env.observation_size, env.num_actions,
                                   hidden=(8,), rng=7)
        trainer = A2CTrainer(
            lambda: ContextualBanditEnv(),
            A2CConfig(n_steps=4, n_envs=2),
            policy=policy,
        )
        assert trainer.policy is policy


def _reforwarding(trainer_cls):
    """``trainer_cls`` as it was before the rollout became the training
    forward: both networks see the whole batch again inside the update."""

    class Reforwarding(trainer_cls):
        def _apply_update(self, logits, values, actions, returns, advantages):
            obs = self.buffer.flat_obs
            return super()._apply_update(
                self.policy.actor.forward(obs),
                self.policy.critic.forward(obs)[:, 0],
                actions,
                returns,
                advantages,
            )

    return Reforwarding


class TestOneForwardPerObservation:
    """The gradient is taken through the activations that chose the
    actions; at n_envs=4 (the paper's l) that is bit for bit the update a
    second forward of both networks would have made."""

    @pytest.mark.parametrize(
        "trainer_cls, config",
        [
            (A2CTrainer, A2CConfig(n_steps=8, n_envs=4, learning_rate=0.003)),
            (ACKTRTrainer, ACKTRConfig(n_steps=8, n_envs=4)),
        ],
        ids=["a2c", "acktr"],
    )
    def test_weights_bitwise_equal_a_reforwarding_trainer(self, trainer_cls, config):
        network = line_network(3, node_capacity=10.0, link_capacity=10.0)
        env_config = make_env_config(network, make_simple_catalog(), horizon=100.0)
        assert env_config.sim_config.check_invariants

        def trained(cls):
            trainer = cls(
                CountingEnvFactory(CoordinationEnvBuilder(env_config)), config, seed=0
            )
            trainer.train(5)
            return (
                trainer.policy.actor.copy_parameters()
                + trainer.policy.critic.copy_parameters()
            )

        weights = trained(trainer_cls)
        reference = trained(_reforwarding(trainer_cls))
        assert all(np.array_equal(a, b) for a, b in zip(weights, reference))
        assert all(np.isfinite(w).all() for w in weights)

    def test_update_runs_each_network_once_over_the_batch(self, monkeypatch):
        """32 actor windows + 1 bootstrap through the workspaces, one
        critic batch forward, and no actor batch forward at all."""
        from repro.nn.mlp import MLP, MLPInference

        trainer = A2CTrainer(
            lambda: ContextualBanditEnv(), A2CConfig(n_steps=32, n_envs=4), seed=0
        )
        calls = {"workspace": [], "batch": []}
        forward, mlp_forward = MLPInference.forward, MLP.forward

        def workspace_forward(inference, x):
            calls["workspace"].append((inference.mlp, len(x)))
            return forward(inference, x)

        def batch_forward(mlp, x):
            calls["batch"].append((mlp, len(x)))
            return mlp_forward(mlp, x)

        monkeypatch.setattr(MLPInference, "forward", workspace_forward)
        monkeypatch.setattr(MLP, "forward", batch_forward)
        trainer.update()
        actor, critic = trainer.policy.actor, trainer.policy.critic
        assert calls["workspace"] == [(actor, 4)] * 32 + [(critic, 4)]
        assert calls["batch"] == [(critic, 128)]
