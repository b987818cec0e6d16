"""Fault schedules: what fails, when, and for how long.

This module is pure data — it knows nothing about the simulator.  A
:class:`FaultSpec` describes one fault (a link failure, a node outage, or
a capacity degradation) as a closed activity window ``[start, start +
duration)``; a :class:`FaultSchedule` is a validated, time-ordered set of
specs; and a :class:`FaultScenarioConfig` is the *seed-driven recipe*
that generates a schedule deterministically for a given network and
horizon (plus optional explicit specs for hand-written scenarios).

The split matters for reproducibility: the config is a small frozen
dataclass that rides inside :class:`repro.sim.config.SimulationConfig`
and pickles into evaluation worker processes; the concrete schedule is
derived on simulator construction from ``(config, network, horizon)``
only, so parallel and serial runs see the identical fault sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.topology.network import Network, link_key

__all__ = [
    "FaultKind",
    "FaultSpec",
    "FaultSchedule",
    "FaultScenarioConfig",
]

#: A fault target: a node name, or an undirected link as a name pair.
FaultTarget = Union[str, Tuple[str, str]]

# The shape of every fault FaultScenarioConfig.build_schedule generates.
#: Fractions of the horizon between which onsets are drawn uniformly; they
#: leave a fault-free head and tail so the pre-failure / during /
#: post-recovery split is observable.
ONSET_WINDOW = (0.25, 0.6)
#: Mean of the exponential fault-duration draw.
MEAN_DOWNTIME = 200.0
#: Lower clamp on drawn durations.
MIN_DOWNTIME = 10.0
#: Capacity multiplier of a generated degradation.
DEGRADATION_FACTOR = 0.5


class FaultKind(Enum):
    """The three fault classes the injector understands."""

    #: The link carries no traffic during the window; flows holding rate
    #: on it are dropped at onset, forwarding onto it drops the flow.
    LINK_FAILURE = "link_failure"
    #: The node is dead during the window: placed instances are evicted,
    #: resident/held flows are dropped, arrivals at the node are dropped.
    NODE_OUTAGE = "node_outage"
    #: The target's capacity is scaled by ``factor`` during the window;
    #: nothing already admitted is evicted, new admissions see the
    #: reduced capacity.
    CAPACITY_DEGRADATION = "capacity_degradation"


@dataclass(frozen=True)
class FaultSpec:
    """One fault event: a target, an activity window, and a severity.

    Attributes:
        kind: Fault class.
        target: Node name, or ``(u, v)`` link endpoints (any order; the
            canonical key is taken).  Links are only valid for
            LINK_FAILURE and CAPACITY_DEGRADATION targets of links.
        start: Onset time (simulation time units).
        duration: Window length; recovery fires at ``start + duration``.
        factor: Capacity multiplier in ``[0, 1)`` during the window.
            Only meaningful for CAPACITY_DEGRADATION; failures and
            outages force it to 0.0.
    """

    kind: FaultKind
    target: FaultTarget
    start: float
    duration: float
    factor: float = 0.0

    def __post_init__(self) -> None:
        if not self.start >= 0:
            raise ValueError(f"fault start must be >= 0, got {self.start}")
        if not self.duration > 0:
            raise ValueError(f"fault duration must be > 0, got {self.duration}")
        if not 0.0 <= self.factor < 1.0:
            raise ValueError(
                f"fault factor must be in [0, 1), got {self.factor}"
            )
        if isinstance(self.target, tuple):
            if self.kind is FaultKind.NODE_OUTAGE:
                raise ValueError("NODE_OUTAGE target must be a node name")
            u, v = self.target
            object.__setattr__(self, "target", link_key(u, v))
        elif self.kind is FaultKind.LINK_FAILURE:
            raise ValueError("LINK_FAILURE target must be a (u, v) link tuple")
        # Exact compare on purpose: hard faults must keep the 0.0 default.
        if (
            self.kind is not FaultKind.CAPACITY_DEGRADATION
            and self.factor != 0.0  # repro: allow[REP005] exact-default guard
        ):
            raise ValueError(
                f"{self.kind.value} is a hard fault; factor must be 0.0"
            )

    @property
    def end(self) -> float:
        """Recovery time."""
        return self.start + self.duration

    @property
    def target_label(self) -> str:
        """Human/telemetry-readable target name."""
        if isinstance(self.target, tuple):
            return f"{self.target[0]}-{self.target[1]}"
        return self.target


@dataclass(frozen=True)
class FaultSchedule:
    """A validated, time-ordered collection of fault specs."""

    specs: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(
                self.specs,
                key=lambda s: (s.start, s.kind.value, s.target_label, s.duration),
            )
        )
        object.__setattr__(self, "specs", ordered)

    def __len__(self) -> int:
        return len(self.specs)

    def __bool__(self) -> bool:
        return bool(self.specs)

    @property
    def window(self) -> Optional[Tuple[float, float]]:
        """``(first onset, last recovery)`` of the whole schedule, or None
        when the schedule is empty.  Defines the pre-failure / during /
        post-recovery phases of the run's success-ratio split."""
        if not self.specs:
            return None
        return (
            min(s.start for s in self.specs),
            max(s.end for s in self.specs),
        )

    def validate(self, network: Network) -> None:
        """Raise ``ValueError`` when any target is not in ``network``."""
        for spec in self.specs:
            if isinstance(spec.target, tuple):
                if not network.has_link(*spec.target):
                    raise ValueError(
                        f"fault targets unknown link {spec.target_label}"
                    )
            elif not network.has_node(spec.target):
                raise ValueError(f"fault targets unknown node {spec.target!r}")


@dataclass(frozen=True)
class FaultScenarioConfig:
    """Seed-driven recipe for a fault schedule (rides on ``SimConfig``).

    The concrete schedule is generated by :meth:`build_schedule` from the
    seed alone — the draw order is fixed (link failures, then node
    outages, then degradations; targets from sorted name lists), so the
    same ``(config, network, horizon)`` always yields the same schedule,
    in worker processes and across runs alike.

    Attributes:
        seed: Generator seed for targets, onsets, and durations.
        link_failures: Number of link-failure events to draw.
        node_outages: Number of node-outage events to draw.  Ingress and
            egress nodes are never targeted (an egress outage makes the
            whole run degenerate).
        degradations: Number of capacity-degradation events to draw
            (nodes and links alternately).
        specs: Explicit fault specs, merged with the generated ones.
            A config with only ``specs`` (all counts zero) is fully
            deterministic without any random draw.
    """

    seed: int = 0
    link_failures: int = 0
    node_outages: int = 0
    degradations: int = 0
    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for name in ("link_failures", "node_outages", "degradations"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        object.__setattr__(self, "specs", tuple(self.specs))

    @property
    def empty(self) -> bool:
        """True when the config yields no faults at all."""
        return not (
            self.link_failures or self.node_outages or self.degradations
            or self.specs
        )

    def build_schedule(self, network: Network, horizon: float) -> FaultSchedule:
        """The deterministic schedule for one network and horizon."""
        rng = np.random.default_rng(self.seed)
        lo, hi = ONSET_WINDOW
        specs: List[FaultSpec] = list(self.specs)

        def draw_window() -> Tuple[float, float]:
            start = float(rng.uniform(lo * horizon, hi * horizon))
            duration = max(MIN_DOWNTIME, float(rng.exponential(MEAN_DOWNTIME)))
            # Recoveries beyond the horizon never fire; clamp so the
            # post-recovery phase exists whenever the onset leaves room.
            duration = min(duration, max(MIN_DOWNTIME, horizon - start))
            return start, duration

        link_keys = sorted(link.key for link in network.links)
        protected = set(network.ingress) | set(network.egress)
        outage_nodes = [
            name for name in network.node_names if name not in protected
        ]

        for _ in range(self.link_failures):
            if not link_keys:
                break
            target = link_keys[int(rng.integers(len(link_keys)))]
            start, duration = draw_window()
            specs.append(
                FaultSpec(FaultKind.LINK_FAILURE, target, start, duration)
            )
        for _ in range(self.node_outages):
            if not outage_nodes:
                break
            target = outage_nodes[int(rng.integers(len(outage_nodes)))]
            start, duration = draw_window()
            specs.append(
                FaultSpec(FaultKind.NODE_OUTAGE, target, start, duration)
            )
        for index in range(self.degradations):
            start, duration = draw_window()
            degraded: FaultTarget
            if index % 2 == 0 and outage_nodes:
                degraded = outage_nodes[int(rng.integers(len(outage_nodes)))]
            elif link_keys:
                degraded = link_keys[int(rng.integers(len(link_keys)))]
            else:
                continue
            specs.append(
                FaultSpec(
                    FaultKind.CAPACITY_DEGRADATION,
                    degraded,
                    start,
                    duration,
                    factor=DEGRADATION_FACTOR,
                )
            )

        schedule = FaultSchedule(tuple(specs))
        schedule.validate(network)
        return schedule
