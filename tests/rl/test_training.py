"""Tests for multi-seed training and best-agent selection."""

import numpy as np
import pytest

from repro.rl.a2c import A2CConfig, A2CTrainer
from repro.rl.acktr import ACKTRConfig, ACKTRTrainer
from repro.rl.policy import ActorCriticPolicy
from repro.rl.training import evaluate_policy, train_multi_seed

from tests.parallel.test_determinism import BanditBuilder
from tests.rl.toy_envs import ContextualBanditEnv


class TestEvaluatePolicy:
    def test_reports_reward_and_success(self):
        env = ContextualBanditEnv(episode_length=10, seed=0)
        policy = ActorCriticPolicy(env.observation_size, env.num_actions,
                                   hidden=(8,), rng=0)
        result = evaluate_policy(policy, env, episodes=3)
        assert "mean_episode_reward" in result
        assert -10.0 <= result["mean_episode_reward"] <= 10.0
        assert "success_ratio" in result

    def test_deterministic_by_default(self):
        env = ContextualBanditEnv(episode_length=10, seed=5)
        policy = ActorCriticPolicy(env.observation_size, env.num_actions,
                                   hidden=(8,), rng=0)
        a = evaluate_policy(policy, ContextualBanditEnv(seed=5), episodes=2)
        b = evaluate_policy(policy, ContextualBanditEnv(seed=5), episodes=2)
        assert a == b


    @pytest.mark.parametrize("episodes", [0, -3])
    def test_episode_counts_below_one_rejected(self, episodes):
        env = ContextualBanditEnv(seed=5)
        policy = ActorCriticPolicy(env.observation_size, env.num_actions,
                                   hidden=(8,), rng=0)
        with pytest.raises(ValueError, match="episodes must be >= 1"):
            evaluate_policy(policy, env, episodes=episodes)


class TestTrainMultiSeed:
    def test_selects_best_seed(self):
        result = train_multi_seed(
            BanditBuilder(),
            config=ACKTRConfig(n_steps=20, n_envs=2),
            seeds=(0, 1, 2),
            updates_per_seed=15,
        )
        assert len(result.results) == 3
        assert {r.seed for r in result.results} == {0, 1, 2}
        best_reward = max(r.mean_episode_reward for r in result.results)
        assert result.best.mean_episode_reward == best_reward
        assert result.best_policy is result.best.policy

    def test_a2c_algorithm_choice(self, monkeypatch):
        """The config's type picks the trainer: a plain A2CConfig trains
        with A2CTrainer, an ACKTRConfig with ACKTRTrainer."""
        built = []
        init = A2CTrainer.__init__

        def spy(trainer, *args, **kwargs):
            built.append(type(trainer))
            init(trainer, *args, **kwargs)

        monkeypatch.setattr(A2CTrainer, "__init__", spy)
        for config in (
            A2CConfig(learning_rate=0.003, n_steps=10, n_envs=2),
            ACKTRConfig(n_steps=10, n_envs=2),
        ):
            result = train_multi_seed(
                BanditBuilder(), config=config, seeds=(0,), updates_per_seed=5,
                workers=1,
            )
            assert len(result.results) == 1
        assert built == [A2CTrainer, ACKTRTrainer]

    @pytest.mark.parametrize("eval_episodes", [0, -3])
    def test_eval_episodes_below_one_rejected(self, eval_episodes):
        """Zero episodes used to score every seed NaN, and max() over NaN
        keys silently "selected" the first seed."""
        with pytest.raises(ValueError, match="eval_episodes must be >= 1"):
            train_multi_seed(
                BanditBuilder(), seeds=(0,),
                eval_episodes=eval_episodes,
            )

    def test_distinct_seeds_distinct_policies(self):
        result = train_multi_seed(
            BanditBuilder(),
            config=ACKTRConfig(n_steps=10, n_envs=2),
            seeds=(0, 1),
            updates_per_seed=3,
        )
        w0 = result.results[0].policy.actor.parameters[0]
        w1 = result.results[1].policy.actor.parameters[0]
        assert not np.allclose(w0, w1)
