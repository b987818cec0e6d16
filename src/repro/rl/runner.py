"""Environment protocol and the parallel-rollout runner.

ACKTR/A3C collect experience from ``l`` parallel copies of the environment
(Alg. 1, lines 2-3) for more diverse training data.  Environments here are
stepped round-robin in one process — logically parallel, which is all the
algorithm requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Protocol, Sequence, Tuple

import numpy as np

from repro.nn.distributions import Categorical
from repro.nn.mlp import MLPInference
from repro.rl.buffer import RolloutBuffer
from repro.rl.policy import ActorCriticPolicy

__all__ = ["Env", "EpisodeRecord", "ParallelRunner"]


class Env(Protocol):
    """Gym-style environment protocol the RL stack trains against."""

    #: Flat observation vector size.
    observation_size: int
    #: Number of discrete actions.
    num_actions: int

    def reset(self) -> np.ndarray:
        """Start a new episode; returns the first observation."""
        ...

    def step(self, action: int) -> Tuple[np.ndarray, float, bool, Dict[str, Any]]:
        """Apply ``action``; returns (obs, reward, done, info)."""
        ...


@dataclass(slots=True)
class EpisodeRecord:
    """Summary of one finished episode.

    ``info`` holds only the terminal-info fields the runner was asked to
    keep (:class:`ParallelRunner` ``info_keys``), not a copy of the env's
    whole info dict.
    """

    total_reward: float
    length: int
    info: Dict[str, Any] = field(default_factory=dict)


class ParallelRunner:
    """Steps ``l`` environments with a shared policy, filling rollouts.

    Observations follow the one hand-off every driver uses — the driver
    owns the destination row and the env builds into it: each env that
    has an ``observation_out`` attribute is bound, for the runner's
    lifetime, to its row of the runner's storage; an env without one has
    the vector it returns copied into that row.

    Args:
        envs: The parallel environment copies (len = ``l``).
        policy: Shared actor-critic used for action selection.
        n_steps: Transitions per environment per rollout (mini-batch b has
            ``l * n_steps`` experiences).
        rng: Generator for action sampling.
        info_keys: Terminal-info fields copied into each
            :class:`EpisodeRecord` (default: just ``success_ratio``, the
            only field the training pipeline consumes).  Episodes end
            thousands of times per run, so the runner materialises these
            few fields instead of copying the env's whole info dict.
    """

    def __init__(
        self,
        envs: List[Env],
        policy: ActorCriticPolicy,
        n_steps: int,
        rng: np.random.Generator,
        info_keys: Sequence[str] = ("success_ratio",),
    ) -> None:
        if not envs:
            raise ValueError("need at least one environment")
        sizes = {env.observation_size for env in envs}
        actions = {env.num_actions for env in envs}
        if len(sizes) != 1 or len(actions) != 1:
            raise ValueError(
                "all parallel environments must share observation/action spaces "
                f"(got sizes {sizes}, actions {actions})"
            )
        if policy.obs_dim != sizes.pop() or policy.num_actions != actions.pop():
            raise ValueError("policy spaces do not match the environments")
        self.envs = envs
        self.policy = policy
        self.n_steps = n_steps
        self.rng = rng
        self.info_keys = tuple(info_keys)
        #: Optional :class:`repro.profiling.PhaseAccumulator`; when set,
        #: collect() attributes the per-step actor forwards with their
        #: action sampling, and the bootstrap critic forward, to the
        #: ``policy_forward`` phase.
        self.profiler = None
        # Observation storage, allocated once: ``_obs`` holds the rows the
        # policy acts on, ``_next_obs`` the rows the envs produce (bound
        # envs build straight into theirs).
        self._obs = np.empty(
            (len(envs), envs[0].observation_size), dtype=np.float64
        )
        self._next_obs = np.empty_like(self._obs)
        self._next_rows = list(self._next_obs)
        for i, env in enumerate(envs):
            if hasattr(env, "observation_out"):
                env.observation_out = self._next_rows[i]
            self._obs[i] = env.reset()
        self._episode_rewards = np.zeros(len(envs))
        self._episode_lengths = np.zeros(len(envs), dtype=np.int64)
        # Per-step bookkeeping, allocated once: collect() fills these in
        # place every step (the buffer copies on add), so the per-decision
        # hot path performs no array allocation.
        self._rewards = np.zeros(len(envs))
        self._dones = np.zeros(len(envs))
        # The rollout is the update's training forward.  The actor gets
        # one workspace of n_steps * n_envs rows and step t runs on row
        # window t, so after collect() the workspace holds, layer by
        # layer, what ``actor.forward`` on the flattened rollout would
        # have cached (float64 MLPInference is the same ufuncs and GEMM on
        # the live weights; an n_envs-row GEMM is a row block of the batch
        # GEMM for n_envs >= 4 on the bundled OpenBLAS, ulps off below)
        # and :meth:`training_logits` hands it to the update.  The critic
        # is not needed to act: its workspace serves the bootstrap only.
        width = len(envs)
        self._actor_inference = MLPInference(policy.actor)
        self._actor_inference.input_rows(n_steps * width)
        self._actor_windows = [
            self._actor_inference.window(t * width, (t + 1) * width)
            for t in range(n_steps)
        ]
        self._critic_inference = MLPInference(policy.critic)
        #: Completed-episode summaries, drained by the trainer.
        self.finished_episodes: List[EpisodeRecord] = []

    def collect(self, buffer: RolloutBuffer) -> np.ndarray:
        """Fill ``buffer`` with ``n_steps`` of experience per env.

        Returns the critic's values of the final observations (for
        bootstrapping the returns); the values of the stored observations
        are the update's to compute, in one batch.  Episodes that end
        mid-rollout are recorded in :attr:`finished_episodes` and their
        env auto-reset.
        """
        buffer.reset()
        prof = self.profiler
        next_obs, rewards, dones = self._next_obs, self._rewards, self._dones
        next_rows = self._next_rows
        info_keys = self.info_keys
        windows = self._actor_windows
        for t in range(self.n_steps):
            start = perf_counter() if prof is not None else 0.0
            actions = Categorical(windows[t].forward(self._obs)).sample(self.rng)
            if prof is not None:
                prof.policy_forward += perf_counter() - start
            for i, env in enumerate(self.envs):
                obs, reward, done, info = env.step(int(actions[i]))
                self._episode_rewards[i] += reward
                self._episode_lengths[i] += 1
                if done:
                    self.finished_episodes.append(
                        EpisodeRecord(
                            total_reward=float(self._episode_rewards[i]),
                            length=int(self._episode_lengths[i]),
                            info={k: info[k] for k in info_keys if k in info},
                        )
                    )
                    self._episode_rewards[i] = 0.0
                    self._episode_lengths[i] = 0
                    obs = env.reset()
                if obs is not next_rows[i]:
                    next_obs[i] = obs
                rewards[i] = reward
                dones[i] = float(done)
            buffer.add(self._obs, actions, rewards, dones)
            # The buffer copied everything: one block copy moves the new
            # rows under the policy, and the bound rows never move.
            self._obs[...] = next_obs
        start = perf_counter() if prof is not None else 0.0
        # Copy out of the workspace: the bootstrap values outlive the next
        # forward pass.
        last_values = self._critic_inference.forward(self._obs)[:, 0].copy()
        if prof is not None:
            prof.policy_forward += perf_counter() - start
        return last_values

    def training_logits(self) -> np.ndarray:
        """The actor logits that chose the last rollout's actions, one row
        per ``buffer.flat_obs`` row, with the actor's backward caches set
        to the activations that produced them — the training forward of
        the update, already done.  Valid until the next :meth:`collect`."""
        return self._actor_inference.adopt_caches(self.n_steps * len(self.envs))

    def drain_episodes(self) -> List[EpisodeRecord]:
        episodes, self.finished_episodes = self.finished_episodes, []
        return episodes
