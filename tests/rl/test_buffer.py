"""Tests for rollout storage and return computation."""

import numpy as np
import pytest

from repro.rl.buffer import RolloutBuffer, compute_returns


class TestComputeReturns:
    def test_hand_computed_no_done(self):
        rewards = np.array([[1.0], [2.0], [3.0]])
        dones = np.zeros((3, 1))
        last_values = np.array([10.0])
        returns = compute_returns(rewards, dones, last_values, gamma=0.5)
        # R2 = 3 + .5*10 = 8; R1 = 2 + .5*8 = 6; R0 = 1 + .5*6 = 4.
        assert np.allclose(returns[:, 0], [4.0, 6.0, 8.0])

    def test_done_cuts_bootstrap(self):
        rewards = np.array([[1.0], [2.0], [3.0]])
        dones = np.array([[0.0], [1.0], [0.0]])
        last_values = np.array([10.0])
        returns = compute_returns(rewards, dones, last_values, gamma=0.5)
        # R2 = 3 + .5*10 = 8; R1 = 2 (done); R0 = 1 + .5*2 = 2.
        assert np.allclose(returns[:, 0], [2.0, 2.0, 8.0])

    def test_gamma_one_sums_rewards(self):
        rewards = np.ones((4, 2))
        dones = np.zeros((4, 2))
        returns = compute_returns(rewards, dones, np.zeros(2), gamma=1.0)
        assert np.allclose(returns[0], 4.0)

    def test_multiple_envs_independent(self):
        rewards = np.array([[1.0, 10.0], [1.0, 10.0]])
        dones = np.array([[0.0, 1.0], [0.0, 0.0]])
        returns = compute_returns(rewards, dones, np.array([5.0, 5.0]), gamma=1.0)
        assert np.allclose(returns[:, 0], [7.0, 6.0])
        assert np.allclose(returns[:, 1], [10.0, 15.0])


class TestRolloutBuffer:
    def _filled(self, n_steps=3, n_envs=2, obs_dim=4):
        buf = RolloutBuffer(n_steps, n_envs, obs_dim)
        for t in range(n_steps):
            buf.add(
                obs=np.full((n_envs, obs_dim), t, dtype=float),
                actions=np.full(n_envs, t),
                rewards=np.full(n_envs, float(t)),
                dones=np.zeros(n_envs),
            )
        return buf

    def test_fill_and_flatten(self):
        buf = self._filled()
        actions, returns, advantages = buf.batch(np.zeros(6), np.zeros(2), gamma=1.0)
        obs = buf.flat_obs
        assert obs.shape == (6, 4)
        assert actions.shape == (6,)
        assert returns.shape == (6,)
        # Flattening is (step, env): first two rows are step 0.
        assert np.all(obs[0] == 0) and np.all(obs[1] == 0) and np.all(obs[2] == 1)

    def test_advantages_are_returns_minus_values(self):
        buf = self._filled()
        values = np.linspace(0.0, 1.0, 6)
        _, returns, advantages = buf.batch(values, np.zeros(2), gamma=1.0)
        assert np.allclose(advantages, returns - values)
        # The update's values are stored in (step, env) layout.
        assert np.array_equal(buf.values.reshape(6), values)

    def test_overfill_rejected(self):
        buf = self._filled(n_steps=2)
        with pytest.raises(RuntimeError, match="full"):
            buf.add(np.zeros((2, 4)), np.zeros(2), np.zeros(2), np.zeros(2))

    def test_batch_before_full_rejected(self):
        buf = RolloutBuffer(3, 2, 4)
        with pytest.raises(RuntimeError, match="incomplete"):
            buf.batch(np.zeros(6), np.zeros(2), gamma=0.9)

    def test_reset_allows_reuse(self):
        buf = self._filled()
        buf.reset()
        assert not buf.full
        buf.add(np.ones((2, 4)), np.zeros(2), np.zeros(2), np.zeros(2))

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            RolloutBuffer(0, 2, 4)
