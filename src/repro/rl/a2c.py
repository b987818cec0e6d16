"""Advantage actor-critic (A2C) — the synchronous variant of A3C [39].

One trainer update (Alg. 1, lines 10-12):

1. collect ``n_steps`` transitions from each of ``l`` parallel envs,
2. compute bootstrapped returns and advantages,
3. train the critic V_φ on squared TD error,
4. train the actor π_θ on the policy gradient with an entropy bonus.

The weights are fixed between updates, so each network sees an
observation once: the rollout's actor forwards are the training forward
(:meth:`ParallelRunner.training_logits`) and one batch critic forward
serves the advantages and the value loss alike.

Gradients are derived analytically (see :mod:`repro.nn.distributions`) and
applied with RMSprop, as in the paper.  :class:`repro.rl.acktr.ACKTRTrainer`
subclasses this and swaps the optimiser for K-FAC natural gradients.
"""

from __future__ import annotations

import numbers
import time as _time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.nn.distributions import Categorical
from repro.nn.optim import MAX_GRAD_NORM, RMSprop, clip_grads_by_norm
from repro.profiling import PhaseAccumulator
from repro.rl.buffer import RolloutBuffer
from repro.rl.policy import ActorCriticPolicy
from repro.rl.runner import Env, EpisodeRecord, ParallelRunner
from repro.telemetry import NULL_RECORDER, Recorder

__all__ = [
    "A2CConfig",
    "UpdateStats",
    "A2CTrainer",
    "GAMMA",
    "ENTROPY_COEF",
    "VALUE_LOSS_COEF",
    "MAX_GRAD_NORM",
]

#: The paper's fixed coefficients (Sec. V-A2), shared by A2C and ACKTR:
#: discount γ, entropy bonus and value-loss weight.  The gradient clip,
#: :data:`~repro.nn.optim.MAX_GRAD_NORM` (0.5), is re-exported here.
GAMMA = 0.99
ENTROPY_COEF = 0.01
VALUE_LOSS_COEF = 0.25


def require_count(config: object, *names: str) -> None:
    """Refuse a config field that is not an integer >= 1, NaN and 2.5
    included: the trainers use these counts in ``range()`` and in
    ``updates % stat_interval == 0``, which need an integer."""
    for name in names:
        value = getattr(config, name)
        if not isinstance(value, numbers.Integral) or not value >= 1:
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class A2CConfig:
    """The hyperparameters shared by A2C and ACKTR that a run may set.

    Defaults follow the paper (Sec. V-A2): learning rate 0.25, l = 4
    parallel environments.  The coefficients the paper fixes are module
    constants: :data:`GAMMA`, :data:`ENTROPY_COEF`,
    :data:`VALUE_LOSS_COEF` and :data:`MAX_GRAD_NORM`.
    """

    learning_rate: float = 0.25
    n_steps: int = 32
    n_envs: int = 4

    def __post_init__(self) -> None:
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        require_count(self, "n_steps", "n_envs")


@dataclass
class UpdateStats:
    """Diagnostics for one training update.

    Attributes:
        policy_loss: Mean policy-gradient loss of the batch.
        value_loss: Weighted mean squared TD error.
        entropy: Mean policy entropy over the batch.
        mean_return: Mean bootstrapped return of the batch.
        grad_norm: Actor gradient norm before clipping (for ACKTR this
            is the pre-clip norm recorded by the actor's K-FAC step).
        kl: Predicted trust-region KL of the applied actor step (ACKTR
            only; None for plain A2C, which has no trust region).
        trust_scale_actor: K-FAC trust-region rescale of the actor step
            (ACKTR only).
        trust_scale_critic: Same for the critic step.
    """

    policy_loss: float
    value_loss: float
    entropy: float
    mean_return: float
    grad_norm: float
    kl: Optional[float] = None
    trust_scale_actor: Optional[float] = None
    trust_scale_critic: Optional[float] = None


class A2CTrainer:
    """Synchronous advantage actor-critic over parallel environments.

    Args:
        env_factory: Zero-arg callable creating a fresh environment copy;
            called ``config.n_envs`` times.
        config: Hyperparameters.
        seed: Seed for policy initialisation and action sampling.
        policy: Optional pre-built policy (otherwise constructed from the
            first environment's spaces).
        recorder: Telemetry sink (no-op default).  When it is enabled
            every update emits one ``train_update`` record, and the
            trainer attaches a :class:`~repro.profiling.PhaseAccumulator`
            so :meth:`train` can end with one ``train_phases`` record.
    """

    def __init__(
        self,
        env_factory: Callable[[], Env],
        config: A2CConfig = A2CConfig(),
        seed: int = 0,
        policy: Optional[ActorCriticPolicy] = None,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        self.config = config
        self.seed = seed
        self.recorder = recorder
        self.rng = np.random.default_rng(seed)
        self.envs: List[Env] = [env_factory() for _ in range(config.n_envs)]
        first = self.envs[0]
        self.policy = policy or ActorCriticPolicy(
            first.observation_size, first.num_actions, rng=self.rng
        )
        self.runner = ParallelRunner(self.envs, self.policy, config.n_steps, self.rng)
        self.buffer = RolloutBuffer(
            config.n_steps, config.n_envs, first.observation_size
        )
        self._build_optimizers()
        #: All finished-episode records, in completion order.
        self.episode_history: List[EpisodeRecord] = []
        self.updates_done = 0
        #: Phase-time attribution (sim-advance / obs-build / policy-forward
        #: / optimizer-update): follows telemetry, or attached explicitly
        #: with :meth:`attach_profiler`; None otherwise.
        self.profiler: Optional[PhaseAccumulator] = None
        if recorder.enabled:
            self.attach_profiler(PhaseAccumulator())

    def attach_profiler(self, profiler: PhaseAccumulator) -> PhaseAccumulator:
        """Wire ``profiler`` into the trainer, runner, and every env.

        Returns the profiler for chaining.  Envs that never read a
        ``profiler`` attribute (the central-DRL env, test doubles) leave
        their time unattributed.
        """
        self.profiler = profiler
        self.runner.profiler = profiler
        for env in self.envs:
            env.profiler = profiler
        return profiler

    def _build_optimizers(self) -> None:
        self.actor_optimizer = RMSprop(
            self.policy.actor.parameters, lr=self.config.learning_rate
        )
        self.critic_optimizer = RMSprop(
            self.policy.critic.parameters, lr=self.config.learning_rate
        )
        # The gradient clip's square buffers, one set per network.
        self._squares = tuple(
            [np.empty_like(w) for w in net.parameters]
            for net in (self.policy.actor, self.policy.critic)
        )

    # ------------------------------------------------------------------

    def update(self) -> UpdateStats:
        """Collect one rollout and apply one actor + one critic update."""
        record = self.recorder.enabled
        start = _time.perf_counter() if record else 0.0
        last_values = self.runner.collect(self.buffer)
        self.episode_history.extend(self.runner.drain_episodes())
        prof = self.profiler
        update_start = _time.perf_counter() if prof is not None else 0.0
        obs = self.buffer.flat_obs
        values = self.policy.critic.forward(obs)[:, 0]
        actions, returns, advantages = self.buffer.batch(
            values, last_values, GAMMA
        )
        # Per-batch advantage normalisation (variance reduction).
        if advantages.size > 1:
            advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
        stats = self._apply_update(
            self.runner.training_logits(), values, actions, returns, advantages
        )
        if prof is not None:
            prof.optimizer_update += _time.perf_counter() - update_start
            prof.updates += 1
        self.updates_done += 1
        if record:
            fields = {
                "update": self.updates_done,
                "policy_loss": stats.policy_loss,
                "value_loss": stats.value_loss,
                "entropy": stats.entropy,
                "mean_return": stats.mean_return,
                "grad_norm": stats.grad_norm,
                "episodes": len(self.episode_history),
                "seed": self.seed,
                "wall_seconds": _time.perf_counter() - start,
            }
            if stats.kl is not None:
                fields["kl"] = stats.kl
                fields["trust_scale_actor"] = stats.trust_scale_actor
                fields["trust_scale_critic"] = stats.trust_scale_critic
            self.recorder.emit("train_update", **fields)
        return stats

    def _losses(
        self,
        logits: np.ndarray,
        values: np.ndarray,
        actions: np.ndarray,
        returns: np.ndarray,
        advantages: np.ndarray,
    ) -> Tuple[Categorical, np.ndarray, np.ndarray, UpdateStats]:
        """The loss prologue A2C and ACKTR share.

        Returns the action distribution, the per-example gradients of
        ``policy_loss - ENTROPY_COEF * H`` and of the value loss (already
        /batch), and the stats with the optimizer's fields still unset.
        """
        batch = len(actions)
        dist = Categorical(logits)
        td = values - returns
        stats = UpdateStats(
            policy_loss=float(-(advantages * dist.log_prob(actions)).mean()),
            value_loss=float(VALUE_LOSS_COEF * 0.5 * (td**2).mean()),
            entropy=float(dist.entropy().mean()),
            mean_return=float(returns.mean()),
            grad_norm=0.0,
        )
        dlogits = (
            -advantages[:, None] * dist.grad_log_prob(actions)
            - ENTROPY_COEF * dist.grad_entropy()
        ) / batch
        dvalues = (VALUE_LOSS_COEF * td / batch)[:, None]
        return dist, dlogits, dvalues, stats

    def _apply_update(
        self,
        logits: np.ndarray,
        values: np.ndarray,
        actions: np.ndarray,
        returns: np.ndarray,
        advantages: np.ndarray,
    ) -> UpdateStats:
        # Both networks still hold the caches behind ``logits``/``values``.
        _, dlogits, dvalues, stats = self._losses(
            logits, values, actions, returns, advantages
        )
        self.policy.actor.backward(dlogits)
        actor_grads = self.policy.actor.gradients
        stats.grad_norm = clip_grads_by_norm(actor_grads, MAX_GRAD_NORM, self._squares[0])
        self.actor_optimizer.step(actor_grads)

        self.policy.critic.backward(dvalues)
        critic_grads = self.policy.critic.gradients
        clip_grads_by_norm(critic_grads, MAX_GRAD_NORM, self._squares[1])
        self.critic_optimizer.step(critic_grads)
        return stats

    # ------------------------------------------------------------------

    def train(self, total_updates: int) -> List[UpdateStats]:
        """Run ``total_updates`` updates.

        With an enabled recorder, finishes by emitting one
        ``train_phases`` telemetry record attributing the run's wall time
        to sim-advance / obs-build / policy-forward / optimizer-update.
        """
        wall_start = _time.perf_counter()
        history = [self.update() for _ in range(total_updates)]
        prof = self.profiler
        if prof is not None and self.recorder.enabled:
            self.recorder.emit(
                "train_phases",
                seed=self.seed,
                updates=total_updates,
                wall_seconds=_time.perf_counter() - wall_start,
                **self._train_phase_fields(prof),
            )
        return history

    def _train_phase_fields(self, prof: PhaseAccumulator) -> Dict[str, Any]:
        """Trainer-specific payload of the ``train_phases`` record."""
        return dict(prof.phases)
