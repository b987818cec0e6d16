"""High-level training entry point: Alg. 1 end to end.

Centralized offline training (k seeds x l parallel environment copies,
ACKTR) followed by best-agent selection and deployment as a
:class:`~repro.core.agent.DistributedCoordinator` with one agent per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.agent import DistributedCoordinator
from repro.core.env import CoordinationEnvConfig, ServiceCoordinationEnv
from repro.parallel import EnvBuilder
from repro.rl.acktr import ACKTRConfig
from repro.rl.training import MultiSeedResult, train_multi_seed
from repro.telemetry import NULL_RECORDER, Recorder

__all__ = [
    "CoordinationEnvBuilder",
    "TrainingConfig",
    "TrainingResult",
    "train_coordinator",
]


@dataclass(frozen=True)
class CoordinationEnvBuilder(EnvBuilder):
    """Picklable seed-to-environment factory for one scenario.

    Distinct env seeds give the l parallel environment copies different
    traffic realisations, as in A3C-style training; carrying the seed
    explicitly (instead of a shared counter) lets per-seed training tasks
    run in worker processes with bit-identical results.
    """

    env_config: CoordinationEnvConfig

    def build(self, env_seed: int) -> ServiceCoordinationEnv:
        return ServiceCoordinationEnv(self.env_config, seed=env_seed)


@dataclass(frozen=True)
class TrainingConfig:
    """Budget and hyperparameters of the full training pipeline (paper
    Sec. V-A2).

    Attributes:
        algorithm: ``"acktr"`` (paper) or ``"a2c"`` (ablation).
        seeds: Training seeds (paper: k = 10).
        updates_per_seed: Gradient updates per seed.
        rl: Trainer hyperparameters (:class:`~repro.rl.acktr.ACKTRConfig`;
            the defaults are the paper's: l = 4 env copies, α = 0.25,
            γ = 0.99, KL clip 0.001, ...).
        eval_episodes: Greedy episodes per seed for best-agent selection
            (>= 1; the evaluation's lockstep width follows from it).
        workers: Worker processes for the per-seed fan-out (None reads
            ``REPRO_WORKERS``; 1 = serial).
        eval_dtype: Inference dtype of the selection evaluation
            and of the deployed per-node agents (``"f64"``/``"f32"``;
            None reads ``REPRO_EVAL_DTYPE``, float64 when unset).
    """

    algorithm: str = "acktr"
    seeds: Sequence[int] = tuple(range(10))
    updates_per_seed: int = 60
    rl: ACKTRConfig = ACKTRConfig()
    eval_episodes: int = 1
    workers: Optional[int] = None
    eval_dtype: Optional[str] = None

    def quick(self) -> "TrainingConfig":
        """A laptop-scale variant (fewer seeds/updates) for tests and the
        default bench configuration; same algorithm, smaller budget."""
        from dataclasses import replace

        return replace(self, seeds=(0, 1), updates_per_seed=25)


@dataclass
class TrainingResult:
    """Trained coordinator plus the per-seed training record."""

    coordinator: DistributedCoordinator
    multi_seed: MultiSeedResult

    @property
    def best_seed(self) -> int:
        return self.multi_seed.best.seed


def train_coordinator(
    env_config: CoordinationEnvConfig,
    training: TrainingConfig = TrainingConfig(),
    verbose: bool = False,
    recorder: Recorder = NULL_RECORDER,
) -> TrainingResult:
    """Centralized training + distributed deployment (Alg. 1).

    Args:
        env_config: The scenario to train on.
        training: Hyperparameters; defaults match the paper.
        verbose: Print per-seed summaries.
        recorder: Telemetry sink for per-update/per-seed training records
            (see :mod:`repro.telemetry`; no-op default).

    Returns:
        The deployed distributed coordinator (one agent per node holding a
        copy of the best seed's network) and the training record.
    """
    multi_seed = train_multi_seed(
        CoordinationEnvBuilder(env_config),
        config=training.rl,
        seeds=training.seeds,
        updates_per_seed=training.updates_per_seed,
        eval_episodes=training.eval_episodes,
        algorithm=training.algorithm,
        verbose=verbose,
        workers=training.workers,
        eval_dtype=training.eval_dtype,
        recorder=recorder,
    )
    coordinator = DistributedCoordinator(
        env_config.network,
        env_config.catalog,
        multi_seed.best_policy,
        dtype=training.eval_dtype,
    )
    return TrainingResult(coordinator=coordinator, multi_seed=multi_seed)
