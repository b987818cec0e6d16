"""Rollout storage and return/advantage computation.

A2C/ACKTR are on-policy: each update trains on a fresh mini-batch ``b`` of
``n_steps`` transitions from each of ``l`` parallel environments (Alg. 1,
lines 7 and 10).  Returns are bootstrapped with the critic's value of the
last observation (temporal-difference training of V_φ [39]).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["RolloutBuffer", "compute_returns"]


def compute_returns(
    rewards: np.ndarray,
    dones: np.ndarray,
    last_values: np.ndarray,
    gamma: float,
) -> np.ndarray:
    """Discounted bootstrapped returns.

    Args:
        rewards: ``(n_steps, n_envs)`` immediate rewards.
        dones: ``(n_steps, n_envs)`` episode-termination flags *after* each
            step; a done cuts the bootstrap (no value flows across episode
            boundaries).
        last_values: ``(n_envs,)`` critic estimates V(o_{t+n}) for
            bootstrapping beyond the rollout.
        gamma: Discount factor.

    Returns:
        ``(n_steps, n_envs)`` array of returns ``R_t``.
    """
    n_steps, n_envs = rewards.shape
    returns = np.zeros_like(rewards)
    running = last_values.astype(np.float64).copy()
    for t in range(n_steps - 1, -1, -1):
        running = rewards[t] + gamma * running * (1.0 - dones[t])
        returns[t] = running
    return returns


class RolloutBuffer:
    """Fixed-size storage for one on-policy rollout across parallel envs.

    Filled step by step by the runner, then flattened into a training
    batch.  Layout is ``(n_steps, n_envs, ...)``; flattening interleaves
    environments so consecutive batch rows come from different envs, which
    slightly decorrelates the K-FAC statistics.
    """

    def __init__(self, n_steps: int, n_envs: int, obs_dim: int) -> None:
        if n_steps < 1 or n_envs < 1:
            raise ValueError("n_steps and n_envs must be >= 1")
        self.n_steps = n_steps
        self.n_envs = n_envs
        self.obs = np.zeros((n_steps, n_envs, obs_dim))
        self.actions = np.zeros((n_steps, n_envs), dtype=np.int64)
        self.rewards = np.zeros((n_steps, n_envs))
        self.dones = np.zeros((n_steps, n_envs))
        self.values = np.zeros((n_steps, n_envs))
        self._cursor = 0

    @property
    def full(self) -> bool:
        return self._cursor >= self.n_steps

    def add(
        self,
        obs: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        dones: np.ndarray,
    ) -> None:
        """Append one step of experience for all envs."""
        if self.full:
            raise RuntimeError("rollout buffer is full; call reset() first")
        t = self._cursor
        self.obs[t] = obs
        self.actions[t] = actions
        self.rewards[t] = rewards
        self.dones[t] = dones
        self._cursor += 1

    def reset(self) -> None:
        self._cursor = 0

    def _flat(self, arr: np.ndarray) -> np.ndarray:
        return arr.reshape(self.n_steps * self.n_envs, *arr.shape[2:])

    @property
    def flat_obs(self) -> np.ndarray:
        """The ``(n_steps * n_envs, obs_dim)`` training-batch view of ``obs``."""
        return self._flat(self.obs)

    def batch(
        self, values: np.ndarray, last_values: np.ndarray, gamma: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flatten into ``(actions, returns, advantages)`` training arrays.

        ``values`` are the critic's ``V(o_t)`` for :attr:`flat_obs`, from
        the update's one batch forward (i.e. before this update); they are
        stored in :attr:`values` and advantages are ``R_t - V(o_t)``.
        """
        if not self.full:
            raise RuntimeError(
                f"rollout incomplete ({self._cursor}/{self.n_steps} steps)"
            )
        self.values[...] = values.reshape(self.n_steps, self.n_envs)
        returns = compute_returns(self.rewards, self.dones, last_values, gamma)
        advantages = returns - self.values
        return self._flat(self.actions), self._flat(returns), self._flat(advantages)
