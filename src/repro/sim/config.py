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
            processed (the paper uses T = 20000 time steps).
        keep_duration: How long a fully processed flow waits at a node when
            the agent keeps it there (action 0 with ``c_f = ∅``); the paper
            says "one time step".
        drop_active_at_horizon: When True, flows still in flight at the
            horizon are counted as dropped; when False (default, matching
            the paper's objective over *finished* flows) they are simply
            not counted — they surface as ``flows_active`` in the final
            :class:`~repro.sim.metrics.SimulationMetrics`.
        check_invariants: Run state-invariant assertions after every event.
            Slow; meant for tests and debugging.
        faults: Optional fault scenario (link failures, node outages,
            capacity degradations) injected into the run; the concrete
            schedule is derived deterministically from this config, the
            network, and the horizon.  ``None`` (default) keeps the run
            entirely fault-free — and bit-identical to builds without the
            fault subsystem.
    """

    horizon: float = 20000.0
    keep_duration: float = 1.0
    drop_active_at_horizon: bool = False
    check_invariants: bool = False
    faults: Optional[FaultScenarioConfig] = None

    def __post_init__(self) -> None:
        if not self.horizon > 0:
            raise ValueError(f"horizon must be > 0, got {self.horizon}")
        if not self.keep_duration > 0:
            raise ValueError(f"keep_duration must be > 0, got {self.keep_duration}")
