"""ACKTR: actor-critic using Kronecker-factored trust region [38].

The paper's training algorithm.  Identical data flow to
:class:`~repro.rl.a2c.A2CTrainer` — one forward per observation per
network and update: the profiler's ``policy_forward`` is the rollout's
actor windows plus the bootstrap, the critic's batch forward counts as
``optimizer_update`` — but both networks are updated with K-FAC natural
gradients under a KL trust region:

- **actor** — Fisher statistics from actions sampled from the *current
  policy itself* (true Fisher, not the empirical one),
- **critic** — Gauss-Newton statistics from targets sampled around the
  current value prediction (equivalent to the Fisher of a unit-variance
  Gaussian observation model).

Optimizer-path schedule (the trainer picks it from what it observes;
every combination produces the same floats, see DESIGN.md §8b):

- **Concurrent actor/critic updates** — the two K-FAC updates touch
  disjoint state (separate MLPs, separate :class:`KFAC` instances), so
  once the shared-rng draws are hoisted into a serial prologue the two
  network updates run on separate threads (numpy's BLAS releases the GIL
  during GEMMs).  Identical floats by construction: every array each
  thread touches is private to its network, and the actor's input
  arrays are marked read-only before dispatch.  Two threads when the
  process may run on two or more cores (150 updates: 3.17 s → 2.37 s on
  the 2-core bench host), serial on one core, where overlap cannot pay
  for dispatch.
- **Fused dual backward** — each network needs two backward passes per
  update through the same cached activations (sampled-Fisher pass +
  loss pass); :meth:`MLP.backward_pair` stacks both into one ``(2B,
  out)`` delta chain (1.6 ms against 2.05 ms per network).  Used iff a
  runtime probe (:func:`fused_backward_is_exact`) finds it bitwise-exact
  on this BLAS; else the two-pass path is kept.
- **Amortized Fisher statistics** — ``stat_interval > 1`` refreshes the
  Kronecker-factor EMAs (Fisher backward + ``update_stats`` + both rng
  draws) only every N-th update, in the spirit of stable-baselines'
  async Fisher workers.  Default 1 keeps the rng stream and every float
  identical; see EXPERIMENTS.md for learning-curve impact at 5/10.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.nn.kfac import KFAC
from repro.nn.mlp import MLP, fused_backward_is_exact
from repro.parallel import usable_cpus
from repro.profiling import PhaseAccumulator
from repro.rl.a2c import A2CConfig, A2CTrainer, UpdateStats

__all__ = ["ACKTRConfig", "ACKTRTrainer"]


# One lazily created pool shared by every trainer in the process: the
# dispatch pattern runs the critic update on the calling thread and only
# the actor update on the pool, so a single worker yields two concurrent
# update threads.  Module-level (not per-trainer) so multi-seed runs
# don't accumulate idle threads, with a fork hook so a worker process
# forked mid-run never inherits a dead executor thread.
_EXECUTOR: Optional[ThreadPoolExecutor] = None


def _kfac_executor() -> ThreadPoolExecutor:
    global _EXECUTOR
    if _EXECUTOR is None:
        _EXECUTOR = ThreadPoolExecutor(max_workers=1, thread_name_prefix="kfac")
    return _EXECUTOR


def _reset_executor_after_fork() -> None:
    global _EXECUTOR
    _EXECUTOR = None


if hasattr(os, "register_at_fork"):  # pragma: no branch
    os.register_at_fork(after_in_child=_reset_executor_after_fork)


def _network_update(
    network: MLP,
    kfac: KFAC,
    stat_dout: Optional[np.ndarray],
    loss_dout: np.ndarray,
    fused: bool,
) -> Tuple[float, float]:
    """One network's Fisher-stats refresh + loss backward + K-FAC step.

    Self-contained per network — touches only ``network``'s layers and
    ``kfac``'s factors — so the actor and critic calls can run
    concurrently on separate threads without synchronisation.
    ``stat_dout`` is the sampled-Fisher output gradient, or ``None`` on
    a ``stat_interval`` skip update; ``fused`` selects the stacked dual
    backward over the two-pass schedule (same floats either way).

    Returns ``(fisher_stats_seconds, grad_pass_seconds)`` busy times;
    inversion and preconditioning times are recorded on ``kfac`` itself.
    """
    fisher_seconds = 0.0
    t0 = time.perf_counter()
    if stat_dout is None:
        network.backward(loss_dout)
        grad_seconds = time.perf_counter() - t0
    elif fused:
        network.backward_pair(stat_dout, loss_dout)
        t1 = time.perf_counter()
        kfac.update_stats()
        grad_seconds = t1 - t0
        fisher_seconds = time.perf_counter() - t1
    else:
        network.backward(stat_dout)
        kfac.update_stats()
        t1 = time.perf_counter()
        network.backward(loss_dout)
        fisher_seconds = t1 - t0
        grad_seconds = time.perf_counter() - t1
    kfac.step([d.grad for d in network.dense_layers])
    return fisher_seconds, grad_seconds


@dataclass(frozen=True)
class ACKTRConfig(A2CConfig):
    """ACKTR hyperparameters (paper Sec. V-A2 + stable-baselines defaults).

    Attributes (beyond :class:`A2CConfig`):
        kl_clip: Trust-region bound on the per-update predicted KL
            (paper: Kullback-Leibler clipping 0.001).
        fisher_coef: Weight of the sampled-Fisher statistics (paper:
            Fisher coefficient 1.0).
        damping: Tikhonov damping for the K-FAC factor inversions.
        stat_decay: EMA decay of the Kronecker factors.
        inversion_interval: Updates between factor re-inversions.
        stat_interval: Refresh the Kronecker-factor statistics every
            this many updates (1 = every update, bit-identical to the
            historical behaviour; larger values amortize the Fisher
            backward + EMA cost and *change the rng stream*).
    """

    kl_clip: float = 0.001
    fisher_coef: float = 1.0
    damping: float = 0.01
    stat_decay: float = 0.95
    inversion_interval: int = 10
    stat_interval: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.kl_clip > 0:
            raise ValueError(f"kl_clip must be > 0, got {self.kl_clip}")
        if self.stat_interval < 1:
            raise ValueError(
                f"stat_interval must be >= 1, got {self.stat_interval}"
            )


class ACKTRTrainer(A2CTrainer):
    """A2C data flow + K-FAC trust-region updates for actor and critic.

    Attributes (beyond :class:`A2CTrainer`):
        kfac_threads: Update threads, 2 when the process may run on two
            or more cores, else 1 (serial).
        fused_backward_active: Whether the fused dual backward is in use
            (the runtime exactness probe's answer for this trainer's
            shapes).  Both are plain attributes: reports read them and
            the bitwise-equivalence tests flip them.
        fisher_stat_skips: Updates that skipped the Fisher-statistics
            refresh under ``stat_interval`` amortization.
    """

    config: ACKTRConfig

    def __init__(self, env_factory, config: ACKTRConfig = ACKTRConfig(), seed: int = 0,
                 policy=None, recorder=None) -> None:
        from repro.telemetry import NULL_RECORDER

        super().__init__(env_factory, config, seed=seed, policy=policy,
                         recorder=recorder if recorder is not None else NULL_RECORDER)

    def _build_optimizers(self) -> None:
        cfg: ACKTRConfig = self.config  # type: ignore[assignment]
        self.actor_kfac = KFAC(
            self.policy.actor,
            lr=cfg.learning_rate,
            kl_clip=cfg.kl_clip,
            damping=cfg.damping,
            stat_decay=cfg.stat_decay,
            inversion_interval=cfg.inversion_interval,
            max_grad_norm=cfg.max_grad_norm,
        )
        self.critic_kfac = KFAC(
            self.policy.critic,
            lr=cfg.learning_rate,
            kl_clip=cfg.kl_clip,
            damping=cfg.damping,
            stat_decay=cfg.stat_decay,
            inversion_interval=cfg.inversion_interval,
            max_grad_norm=cfg.max_grad_norm,
        )
        self.kfac_threads = min(2, usable_cpus())
        self.fisher_stat_skips = 0
        # Probe with the trainer's real shapes and update-batch size;
        # results are cached per (architecture, batch) per process.
        batch = cfg.n_steps * cfg.n_envs
        self.fused_backward_active = all(
            fused_backward_is_exact(
                net.in_dim, net.hidden, net.out_dim, batch, net.activation
            )
            for net in (self.policy.actor, self.policy.critic)
        )

    def _train_phase_fields(self, prof: PhaseAccumulator) -> Dict[str, Any]:
        """Adds the optimizer-update split (busy seconds per thread, so
        the sum may exceed ``optimizer_update`` when the two updates
        overlap) and the schedule that produced the run."""
        fields = super()._train_phase_fields(prof)
        fields.update(prof.optimizer_subphases)
        fields["stat_skips"] = prof.stat_skips
        fields["kfac_threads"] = self.kfac_threads
        fields["fused_backward_active"] = self.fused_backward_active
        return fields

    def _apply_update(
        self,
        logits: np.ndarray,
        values: np.ndarray,
        actions: np.ndarray,
        returns: np.ndarray,
        advantages: np.ndarray,
    ) -> UpdateStats:
        cfg: ACKTRConfig = self.config  # type: ignore[assignment]
        prof = self.profiler

        # --- serial prologue: losses and *all* rng draws ---------------
        # Both networks hold their forward caches already (actor: the
        # rollout, critic: update()'s batch forward); the rng draws happen
        # here, in the historical order (actor Fisher sample, then critic
        # noise), so the shared stream is identical whether the updates
        # below run serially or overlapped.
        dist, dlogits, dvalues, stats = self._losses(
            logits, values, actions, returns, advantages
        )
        fisher_grad: Optional[np.ndarray] = None
        noise: Optional[np.ndarray] = None
        if self.updates_done % cfg.stat_interval == 0:
            # Actor Fisher pass input: gradients of the model's *own*
            # sampled log-likelihood.  Critic Gauss-Newton pass input: ε,
            # for a target sampled at v + ε, ε ~ N(0, 1).
            fisher_grad = cfg.fisher_coef * dist.fisher_sample_grad(self.rng)
            noise = self.rng.normal(size=dvalues.shape)
        else:
            self.fisher_stat_skips += 1
            if prof is not None:
                prof.stat_skips += 1

        # --- disjoint network updates: overlap given a second core -----
        fused = self.fused_backward_active
        actor_args = (self.policy.actor, self.actor_kfac, fisher_grad, dlogits, fused)
        # The actor's input arrays are read-only on both schedules: a write
        # to one while the task may hold it — by the task, by this thread
        # or by a second task — raises instead of racing.
        for arg in actor_args:
            if isinstance(arg, np.ndarray):
                arg.flags.writeable = False
        if self.kfac_threads >= 2:
            future = _kfac_executor().submit(_network_update, *actor_args)
            critic_times = _network_update(
                self.policy.critic, self.critic_kfac, noise, dvalues, fused
            )
            actor_times = future.result()
        else:
            actor_times = _network_update(*actor_args)
            critic_times = _network_update(
                self.policy.critic, self.critic_kfac, noise, dvalues, fused
            )

        if prof is not None:
            # Busy-time attribution: per-thread clocks, accumulated after
            # the join — under concurrency their sum can exceed the
            # optimizer_update wall time by design.
            prof.fisher_stats += actor_times[0] + critic_times[0]
            prof.grad_pass += actor_times[1] + critic_times[1]
            prof.inversion += (
                self.actor_kfac.last_inversion_seconds
                + self.critic_kfac.last_inversion_seconds
            )
            prof.precondition += (
                self.actor_kfac.last_precondition_seconds
                + self.critic_kfac.last_precondition_seconds
            )

        stats.grad_norm = self.actor_kfac.last_grad_norm
        # Predicted KL of the applied actor step — the quantity the trust
        # region bounds (paper: KL clipping 0.001).
        stats.kl = self.actor_kfac.last_predicted_kl
        stats.trust_scale_actor = self.actor_kfac.last_scale
        stats.trust_scale_critic = self.critic_kfac.last_scale
        return stats
