"""Tests for the A2C trainer."""

import numpy as np
import pytest

from repro.analysis.invariants import invariants_enabled
from repro.core.trainer import CoordinationEnvBuilder
from repro.parallel import CountingEnvFactory
from repro.rl import a2c
from repro.rl.a2c import A2CConfig, A2CTrainer
from repro.rl.acktr import ACKTRConfig, ACKTRTrainer

from tests.conftest import make_env_config, make_simple_catalog
from tests.rl.toy_envs import ContextualBanditEnv, mean_recent_episode_reward
from tests.topology.networks import line_network


class TestA2CConfig:
    def test_defaults_match_paper(self):
        assert a2c.GAMMA == 0.99
        assert a2c.ENTROPY_COEF == 0.01
        assert a2c.VALUE_LOSS_COEF == 0.25
        assert a2c.MAX_GRAD_NORM == 0.5
        cfg = A2CConfig()
        assert cfg.learning_rate == 0.25
        assert cfg.n_envs == 4

    @pytest.mark.parametrize("kwargs", [
        {"learning_rate": 0.0},
        {"learning_rate": -1.0},
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
        assert mean_recent_episode_reward(trainer) > 12.0

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

    def test_clipped_gradients_are_what_the_optimizers_step_with(self, monkeypatch):
        """``clip_grads_by_norm`` scales the networks' gradient buffers in
        place, and the optimisers step with those very buffers."""
        monkeypatch.setattr(a2c, "MAX_GRAD_NORM", 1e-6)
        trainer = A2CTrainer(
            lambda: ContextualBanditEnv(),
            A2CConfig(n_steps=8, n_envs=2),
            seed=0,
        )
        stepped = []
        for network, optimizer in (
            (trainer.policy.actor, trainer.actor_optimizer),
            (trainer.policy.critic, trainer.critic_optimizer),
        ):
            def spy(grads, network=network, step=optimizer.step):
                assert all(g is d.grad for g, d in zip(grads, network.dense_layers))
                norm = np.sqrt(sum(float(np.sum(g**2)) for g in grads))
                stepped.append((list(grads), norm))
                step(grads)

            monkeypatch.setattr(optimizer, "step", spy)
        stats = trainer.update()
        trainer.update()
        assert stats.grad_norm > 1e-6
        assert len(stepped) == 4
        for grads, norm in stepped:
            assert norm == pytest.approx(1e-6, rel=1e-9)
        # Both updates stepped with the same buffers.
        for (first, _), (second, _) in zip(stepped[:2], stepped[2:]):
            assert all(a is b for a, b in zip(first, second))

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

        def trained(cls):
            trainer = cls(
                CountingEnvFactory(CoordinationEnvBuilder(env_config)), config, seed=0
            )
            trainer.train(5)
            return (
                [w.copy() for w in trainer.policy.actor.parameters]
                + [w.copy() for w in trainer.policy.critic.parameters]
            )

        weights = trained(trainer_cls)
        reference = trained(_reforwarding(trainer_cls))
        assert all(np.array_equal(a, b) for a, b in zip(weights, reference))
        assert all(np.isfinite(w).all() for w in weights)
        assert invariants_enabled()  # every simulator swept its invariants

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
