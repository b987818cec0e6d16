"""Comparison algorithms: SP, GCASP, central DRL, random."""

from repro.baselines.base import BasePolicy
from repro.baselines.central_drl import (
    CentralDRLPolicy,
    CentralizedCoordinationEnv,
    RuleExecutor,
    train_central_coordinator,
)
from repro.baselines.gcasp import GCASPPolicy
from repro.baselines.random_policy import RandomPolicy
from repro.baselines.shortest_path import ShortestPathPolicy

__all__ = [
    "BasePolicy",
    "CentralDRLPolicy",
    "CentralizedCoordinationEnv",
    "RuleExecutor",
    "train_central_coordinator",
    "GCASPPolicy",
    "RandomPolicy",
    "ShortestPathPolicy",
]
