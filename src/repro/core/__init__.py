"""The paper's contribution: distributed DRL service coordination."""

from repro.core.agent import DistributedCoordinator, NodeAgent
from repro.core.env import CoordinationEnvConfig, ServiceCoordinationEnv
from repro.core.observations import ObservationAdapter, ObservationParts
from repro.core.rewards import RewardConfig, RewardFunction
from repro.core.trainer import TrainingConfig, TrainingResult, train_coordinator
from repro.sim.simulator import ACTION_PROCESS_LOCALLY

__all__ = [
    "ACTION_PROCESS_LOCALLY",
    "DistributedCoordinator",
    "NodeAgent",
    "CoordinationEnvConfig",
    "ServiceCoordinationEnv",
    "ObservationAdapter",
    "ObservationParts",
    "RewardConfig",
    "RewardFunction",
    "TrainingConfig",
    "TrainingResult",
    "train_coordinator",
]
