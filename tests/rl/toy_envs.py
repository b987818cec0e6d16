"""Tiny environments for exercising the RL stack in isolation."""

from __future__ import annotations

import numpy as np


def mean_recent_episode_reward(trainer, window: int = 20) -> float:
    """Mean total reward over a trainer's last ``window`` finished
    episodes — how the learning tests read progress."""
    recent = trainer.episode_history[-window:]
    assert recent, "no episode finished"
    return float(np.mean([e.total_reward for e in recent]))


class ContextualBanditEnv:
    """Observation is a one-hot state; the matching action pays +1, else -1.

    Episodes last ``episode_length`` steps.  Optimal return equals the
    episode length; a uniform policy averages (2/k - 1) per step.
    """

    def __init__(self, num_states: int = 3, episode_length: int = 20, seed: int = 0):
        self.observation_size = num_states
        self.num_actions = num_states
        self.episode_length = episode_length
        self.rng = np.random.default_rng(seed)
        self._state = 0
        self._t = 0

    def _obs(self) -> np.ndarray:
        obs = np.zeros(self.observation_size)
        obs[self._state] = 1.0
        return obs

    def reset(self) -> np.ndarray:
        self._t = 0
        self._state = int(self.rng.integers(self.num_actions))
        return self._obs()

    def step(self, action: int):
        reward = 1.0 if action == self._state else -1.0
        self._t += 1
        done = self._t >= self.episode_length
        self._state = int(self.rng.integers(self.num_actions))
        info = {"success_ratio": 1.0 if reward > 0 else 0.0} if done else {}
        return self._obs(), reward, done, info


class FixedEpisodeEnv:
    """Deterministic environment for bookkeeping tests: reward = step index,
    episode ends after ``length`` steps, observation counts up."""

    def __init__(self, length: int = 4):
        self.observation_size = 1
        self.num_actions = 2
        self.length = length
        self._t = 0
        self.resets = 0

    def reset(self) -> np.ndarray:
        self.resets += 1
        self._t = 0
        return np.array([0.0])

    def step(self, action: int):
        reward = float(self._t)
        self._t += 1
        done = self._t >= self.length
        return np.array([float(self._t)]), reward, done, {"last": done}
