"""Multi-seed training with best-agent selection (Alg. 1, line 13).

Random seeds have a significant impact on DRL convergence [43], so the
paper trains ``k`` agents with different seeds and automatically selects
the one with the highest reward for online inference.  The selection
evaluation decides greedily, as the deployed agents do; sampling is
exploration inside the trainers only.

The ``k`` per-seed runs are independent, so :func:`train_multi_seed` can
fan them out across worker processes (``workers`` argument or the
``REPRO_WORKERS`` environment variable).  The environment factory is a
picklable :class:`~repro.parallel.protocol.EnvBuilder`, so each seed's
task is fully self-contained and parallel results are bit-identical to
serial ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.nn.mlp import resolve_eval_dtype
from repro.parallel import (
    CountingEnvFactory,
    EnvBuilder,
    TimingReport,
    run_tasks,
)
from repro.rl.a2c import A2CConfig, A2CTrainer
from repro.rl.acktr import ACKTRConfig, ACKTRTrainer
from repro.rl.batched import BatchedEpisodeRunner, supports_batched_evaluation
from repro.rl.policy import ActorCriticPolicy
from repro.rl.runner import Env
from repro.telemetry import NULL_RECORDER, Recorder

__all__ = [
    "LOCKSTEP_MIN_EPISODES",
    "LOCKSTEP_MAX_WIDTH",
    "SeedResult",
    "MultiSeedResult",
    "train_multi_seed",
    "evaluate_policy",
]


@dataclass
class SeedResult:
    """Outcome of training one seed."""

    seed: int
    policy: ActorCriticPolicy
    mean_episode_reward: float
    episodes: int


@dataclass
class MultiSeedResult:
    """All seeds' outcomes plus the selected best agent."""

    results: List[SeedResult]
    best: SeedResult
    #: Wall-clock accounting of the per-seed fan-out (None for results
    #: predating the parallel execution layer).
    timing: Optional[TimingReport] = None

    @property
    def best_policy(self) -> ActorCriticPolicy:
        return self.best.policy


#: Episode count from which :func:`evaluate_policy` runs one lockstep slot
#: per episode; below it one slot plays the episodes in turn.  At 2-3 rows
#: the select's near-tie guard costs more than the shared forward saves
#: (DESIGN §7, widths 2 and 3 of the table).
LOCKSTEP_MIN_EPISODES = 4

#: Most lockstep slots :func:`evaluate_policy` opens (DESIGN §7, width 32
#: of the table: the per-row gain has flattened, each slot holds a live
#: simulator).
LOCKSTEP_MAX_WIDTH = 32


def evaluate_policy(
    policy: ActorCriticPolicy,
    env: Env,
    episodes: int = 1,
    dtype: Optional[str] = None,
    recorder: Recorder = NULL_RECORDER,
) -> Dict[str, float]:
    """Run ``episodes`` full greedy episodes; returns mean reward and
    final infos.

    The coordination environment reports the simulation's success ratio in
    the terminal ``info`` dict; when present it is averaged into the
    result under ``"success_ratio"``.

    An env implementing the episode-replay protocol (``clone`` /
    ``reset_episode``; :class:`ServiceCoordinationEnv` does) is played by
    :class:`repro.rl.batched.BatchedEpisodeRunner` at a width this
    function derives from ``episodes`` — one slot below
    :data:`LOCKSTEP_MIN_EPISODES`, else one per episode up to
    :data:`LOCKSTEP_MAX_WIDTH`.  Float64 per-episode metrics are
    bit-identical to a plain ``act_single`` loop at every width.  Any
    other env is stepped by the generic loop below.

    Args:
        dtype: Inference dtype of the lockstep path — ``"f64"``
            (bit-identical, default) or ``"f32"`` (fast mode); ``None``
            reads ``REPRO_EVAL_DTYPE``.  The generic loop always runs the
            exact float64 forward.
        recorder: Telemetry sink; a lockstep run emits one ``eval_batch``
            record with the derived width (``batch``) and its
            round/forward-time statistics.
    """
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    if supports_batched_evaluation(env):
        width = (
            min(episodes, LOCKSTEP_MAX_WIDTH)
            if episodes >= LOCKSTEP_MIN_EPISODES
            else 1
        )
        outcomes, _ = BatchedEpisodeRunner(
            policy,
            env,
            episodes=episodes,
            batch=width,
            dtype=resolve_eval_dtype(dtype),
            recorder=recorder,
        ).run()
        total_rewards = [o.total_reward for o in outcomes]
        infos = [o.info for o in outcomes]
    else:
        total_rewards = []
        infos = []
        for _ in range(episodes):
            obs = env.reset()
            done = False
            total = 0.0
            info: Dict = {}
            while not done:
                obs, reward, done, info = env.step(policy.act_single(obs))
                total += reward
            total_rewards.append(total)
            infos.append(info)
    success_ratios = [
        float(info["success_ratio"]) for info in infos if "success_ratio" in info
    ]
    out = {"mean_episode_reward": float(np.mean(total_rewards))}
    if success_ratios:
        out["success_ratio"] = float(np.mean(success_ratios))
    return out


@dataclass(frozen=True)
class _SeedTask:
    """Everything one worker needs to train and evaluate one seed."""

    env_factory: Callable[[], Env]
    config: A2CConfig
    algorithm: str
    seed: int
    updates: int
    eval_episodes: int
    #: Inference dtype of the selection evaluation ("f64"/"f32").
    eval_dtype: str = "f64"


def _run_seed_task(task: _SeedTask, recorder: Recorder) -> SeedResult:
    """Train one seed; runs in a worker process or in-process (serial)."""
    trainer_cls = ACKTRTrainer if task.algorithm == "acktr" else A2CTrainer
    trainer = trainer_cls(
        task.env_factory, task.config, seed=task.seed, recorder=recorder
    )
    trainer.train(task.updates)
    evaluation = evaluate_policy(
        trainer.policy,
        task.env_factory(),
        episodes=task.eval_episodes,
        dtype=task.eval_dtype,
        recorder=recorder,
    )
    if recorder.enabled:
        recorder.emit(
            "seed_result",
            seed=task.seed,
            mean_episode_reward=evaluation["mean_episode_reward"],
            episodes=len(trainer.episode_history),
            algorithm=task.algorithm,
        )
    return SeedResult(
        seed=task.seed,
        policy=trainer.policy,
        mean_episode_reward=evaluation["mean_episode_reward"],
        episodes=len(trainer.episode_history),
    )


def train_multi_seed(
    env_factory: EnvBuilder,
    config: A2CConfig = ACKTRConfig(),
    seeds: Sequence[int] = tuple(range(10)),
    updates_per_seed: int = 50,
    eval_episodes: int = 1,
    algorithm: str = "acktr",
    verbose: bool = False,
    workers: Optional[int] = None,
    eval_dtype: Optional[str] = None,
    recorder: Recorder = NULL_RECORDER,
) -> MultiSeedResult:
    """Train ``len(seeds)`` agents and select the best (Alg. 1, line 13).

    Args:
        env_factory: An :class:`~repro.parallel.protocol.EnvBuilder`;
            creates fresh environment copies (used for both training and
            evaluation), each seed replaying its own slice of env seeds.
        config: Trainer hyperparameters (k seeds x l parallel envs).
        seeds: Training seeds (paper: k = 10).
        updates_per_seed: Gradient updates per seed.
        eval_episodes: Greedy evaluation episodes for agent selection
            (>= 1; :func:`evaluate_policy` derives the lockstep width
            from it).
        algorithm: ``"acktr"`` (paper) or ``"a2c"`` (ablation).
        verbose: Print one line per seed.
        workers: Worker processes for the per-seed fan-out (default:
            ``REPRO_WORKERS``, serial when unset).
        eval_dtype: Inference dtype of the selection evaluation
            (``"f64"``/``"f32"``; default: ``REPRO_EVAL_DTYPE``, float64
            when unset).  Float32 trades the bit-identity guarantee for
            speed (see :func:`evaluate_policy`).
        recorder: Telemetry sink.  When enabled, each seed's per-update
            ``train_update`` and final ``seed_result`` records stream
            into a worker-local file and are merged back here in seed
            order, followed by fan-out timing and a ``train_summary``
            record naming the selected best agent.

    Returns:
        Per-seed results and the best agent by greedy evaluation reward,
        plus a timing report of the fan-out.
    """
    if not isinstance(env_factory, EnvBuilder):
        raise TypeError(
            "env_factory must be a repro.parallel.EnvBuilder (a picklable "
            f"seed-to-environment factory), got {type(env_factory).__name__}"
        )
    if algorithm not in ("acktr", "a2c"):
        raise ValueError(f"unknown algorithm {algorithm!r}; use 'acktr' or 'a2c'")
    if algorithm == "acktr" and not isinstance(config, ACKTRConfig):
        config = ACKTRConfig(**config.__dict__)
    if eval_episodes < 1:
        raise ValueError(f"eval_episodes must be >= 1, got {eval_episodes}")
    seeds = list(seeds)
    eval_dtype_str = (
        "f32" if resolve_eval_dtype(eval_dtype) == np.dtype(np.float32) else "f64"
    )

    # Each seed's trainer makes n_envs factory calls plus one for the
    # greedy evaluation env; every seed replays its own slice of that
    # call sequence independently of the others.
    calls_per_seed = config.n_envs + 1
    tasks = [
        _SeedTask(
            env_factory=CountingEnvFactory(env_factory, offset=index * calls_per_seed),
            config=config,
            algorithm=algorithm,
            seed=seed,
            updates=updates_per_seed,
            eval_episodes=eval_episodes,
            eval_dtype=eval_dtype_str,
        )
        for index, seed in enumerate(seeds)
    ]
    outcome = run_tasks(
        _run_seed_task,
        tasks,
        workers=workers,
        labels=[f"seed {seed}" for seed in seeds],
        name=f"train[{algorithm}]",
        recorder=recorder,
    )

    results: List[SeedResult] = outcome.values
    if verbose:
        for result in results:
            print(
                f"seed {result.seed}: eval_reward={result.mean_episode_reward:.1f} "
                f"episodes={result.episodes}"
            )
    best = max(results, key=lambda r: r.mean_episode_reward)
    if recorder.enabled:
        recorder.emit(
            "train_summary",
            algorithm=algorithm,
            seeds=len(seeds),
            best_seed=best.seed,
            best_reward=best.mean_episode_reward,
        )
    return MultiSeedResult(results=results, best=best, timing=outcome.timing)
