"""Flow-level discrete-event simulator (coord-sim equivalent)."""

from repro.sim.config import SimulationConfig
from repro.sim.events import EventKind, EventQueue
from repro.sim.metrics import DropReason, MetricsCollector, SimulationMetrics
from repro.sim.simulator import (
    ACTION_PROCESS_LOCALLY,
    DecisionPoint,
    Outcome,
    OutcomeKind,
    Simulator,
)
from repro.sim.state import Allocation, CapacityError, InstanceState, NetworkState

__all__ = [
    "SimulationConfig",
    "EventKind",
    "EventQueue",
    "DropReason",
    "MetricsCollector",
    "SimulationMetrics",
    "ACTION_PROCESS_LOCALLY",
    "DecisionPoint",
    "Outcome",
    "OutcomeKind",
    "Simulator",
    "Allocation",
    "CapacityError",
    "InstanceState",
    "NetworkState",
]
