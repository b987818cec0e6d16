"""Reinforcement-learning algorithms: A2C, ACKTR, multi-seed training."""

from repro.rl.a2c import A2CConfig, A2CTrainer, UpdateStats
from repro.rl.acktr import ACKTRConfig, ACKTRTrainer
from repro.rl.buffer import RolloutBuffer, compute_returns
from repro.rl.policy import ActorCriticPolicy
from repro.rl.runner import Env, EpisodeRecord, ParallelRunner
from repro.rl.training import (
    MultiSeedResult,
    SeedResult,
    evaluate_policy,
    train_multi_seed,
)

__all__ = [
    "A2CConfig",
    "A2CTrainer",
    "UpdateStats",
    "ACKTRConfig",
    "ACKTRTrainer",
    "RolloutBuffer",
    "compute_returns",
    "ActorCriticPolicy",
    "Env",
    "EpisodeRecord",
    "ParallelRunner",
    "MultiSeedResult",
    "SeedResult",
    "evaluate_policy",
    "train_multi_seed",
]
