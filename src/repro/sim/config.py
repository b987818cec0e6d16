"""Simulation configuration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.faults import FaultScenarioConfig

__all__ = ["SimulationConfig"]


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of the flow-level simulator.

    Attributes:
        horizon: Simulated time span ``T``; events after it are not
            processed (the paper uses T = 20000 time steps).  Flows still
            in flight at the horizon are not counted, matching the
            paper's objective over *finished* flows; they surface as
            ``flows_active`` in the final
            :class:`~repro.sim.metrics.SimulationMetrics`.
        faults: Optional fault scenario (link failures, node outages,
            capacity degradations) injected into the run; the concrete
            schedule is derived deterministically from this config, the
            network, and the horizon.  ``None`` (default) keeps the run
            entirely fault-free — and bit-identical to builds without the
            fault subsystem.
    """

    horizon: float = 20000.0
    faults: Optional[FaultScenarioConfig] = None

    def __post_init__(self) -> None:
        if not self.horizon > 0:
            raise ValueError(f"horizon must be > 0, got {self.horizon}")
