"""The paper's contribution: distributed DRL service coordination."""

from repro.core.agent import DistributedCoordinator
from repro.core.env import CoordinationEnvConfig, ServiceCoordinationEnv
from repro.core.observations import ObservationAdapter
from repro.core.rewards import RewardFunction
from repro.core.trainer import TrainingConfig, TrainingResult, train_coordinator
from repro.sim.simulator import ACTION_PROCESS_LOCALLY

__all__ = [
    "ACTION_PROCESS_LOCALLY",
    "DistributedCoordinator",
    "CoordinationEnvConfig",
    "ServiceCoordinationEnv",
    "ObservationAdapter",
    "RewardFunction",
    "TrainingConfig",
    "TrainingResult",
    "train_coordinator",
]
