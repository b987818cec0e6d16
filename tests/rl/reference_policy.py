"""The allocating actor-critic reference.

Batch action selection straight from the networks' own ``forward``: the
plain way, which the workspace paths every driver runs
(``act_single``, ``select_actions``, the rollout runner) are tested
against.  Nothing in the package calls it, so it lives beside its tests.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.distributions import Categorical
from repro.rl.policy import ActorCriticPolicy


def distribution(policy: ActorCriticPolicy, obs: np.ndarray) -> Categorical:
    """Action distribution π(·|obs) for a batch of observations."""
    return Categorical(policy.actor.forward(obs))


def state_values(policy: ActorCriticPolicy, obs: np.ndarray) -> np.ndarray:
    """State-value estimates V_φ(obs), shape (N,)."""
    return policy.critic.forward(obs)[:, 0]


def act(
    policy: ActorCriticPolicy,
    obs: np.ndarray,
    rng: np.random.Generator,
    deterministic: bool = False,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Actions for a batch of observations: ``(actions, values,
    log_probs)``, the mode (argmax) with ``deterministic=True``, else a
    sample."""
    dist = distribution(policy, obs)
    actions = dist.mode() if deterministic else dist.sample(rng)
    return actions, state_values(policy, obs), dist.log_prob(actions)
