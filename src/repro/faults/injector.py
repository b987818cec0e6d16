"""Runtime fault application over the simulator's network state.

The :class:`FaultInjector` owns all mutable fault state of one run: which
nodes and links are currently down, which degradations are active, and
the resulting *effective* capacities.  It is deliberately dumb about flow
semantics — the simulator decides which flows to drop and which instances
to evict; the injector only flips masks, recomputes capacities via the
state's override arrays, and keeps the telemetry log of what happened.

Depth counters make overlapping faults on the same target compose: a
target is failed while *any* failure window covers it, and degradations
multiply (two 0.5-factor windows overlap to 0.25 of base capacity).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.faults.schedule import FaultKind, FaultSchedule, FaultSpec
from repro.sim.events import EventKind, EventQueue
from repro.sim.state import NetworkState
from repro.topology.network import Network

__all__ = ["FaultInjector"]


class FaultInjector:
    """Applies a :class:`FaultSchedule` to one simulation run.

    Args:
        network: The substrate topology.
        state: The run's mutable network state; capacity overrides are
            enabled on construction (private arrays, base untouched).
        schedule: Validated fault schedule to inject.
    """

    def __init__(
        self, network: Network, state: NetworkState, schedule: FaultSchedule
    ) -> None:
        schedule.validate(network)
        self.network = network
        self.state = state
        self.schedule = schedule
        state.enable_capacity_overrides()
        self.node_failed = np.zeros(network.num_nodes, dtype=bool)
        self.link_failed = np.zeros(network.num_links, dtype=bool)
        # Overlap bookkeeping per target id: how many failure windows
        # currently cover it, and the factors of active degradations.
        self._node_down_depth: Dict[int, int] = {}
        self._link_down_depth: Dict[int, int] = {}
        self._node_factors: Dict[int, List[float]] = {}
        self._link_factors: Dict[int, List[float]] = {}
        #: Telemetry log; one entry per applied onset/recovery, appended
        #: by the simulator (which also fills the drop/eviction counts).
        self.log: List[Dict[str, object]] = []

    @property
    def phase_boundaries(self) -> Optional[Tuple[float, float]]:
        """The schedule's ``(first onset, last recovery)`` window."""
        return self.schedule.window

    def schedule_into(self, queue: EventQueue) -> None:
        """Push one onset and one recovery event per fault spec."""
        for spec in self.schedule.specs:
            queue.push(spec.start, EventKind.FAULT, (spec, True))
            queue.push(spec.end, EventKind.FAULT, (spec, False))

    # ------------------------------------------------------------------
    # Queries (simulator guards)
    # ------------------------------------------------------------------

    def node_is_failed(self, name: str) -> bool:
        """Is ``name`` inside a node-outage window right now?"""
        return bool(self.node_failed[self.network.node_index[name]])

    def link_is_failed(self, link_id: int) -> bool:
        """Is the link with id ``link_id`` inside a failure window?"""
        return bool(self.link_failed[link_id])

    # ------------------------------------------------------------------
    # State transitions
    # ------------------------------------------------------------------

    def apply(self, spec: FaultSpec, onset: bool) -> Union[int, Tuple[str, str]]:
        """Apply one onset or recovery; returns the affected target id.

        For node faults the node id is returned, for link faults the
        canonical link key (the simulator needs both forms to find the
        flows and instances to kill).
        """
        if isinstance(spec.target, tuple):
            link_id = self.network.link_index[spec.target]
            self._apply_link(spec, link_id, onset)
            return spec.target
        node_id = self.network.node_index[spec.target]
        self._apply_node(spec, node_id, onset)
        return node_id

    def _apply_link(self, spec: FaultSpec, link_id: int, onset: bool) -> None:
        if spec.kind is FaultKind.LINK_FAILURE:
            depth = self._link_down_depth.get(link_id, 0) + (1 if onset else -1)
            self._link_down_depth[link_id] = depth
            self.link_failed[link_id] = depth > 0
        else:
            factors = self._link_factors.setdefault(link_id, [])
            if onset:
                factors.append(spec.factor)
            else:
                factors.remove(spec.factor)
        self._recompute_link(link_id)

    def _apply_node(self, spec: FaultSpec, node_id: int, onset: bool) -> None:
        if spec.kind is FaultKind.NODE_OUTAGE:
            depth = self._node_down_depth.get(node_id, 0) + (1 if onset else -1)
            self._node_down_depth[node_id] = depth
            self.node_failed[node_id] = depth > 0
        else:
            factors = self._node_factors.setdefault(node_id, [])
            if onset:
                factors.append(spec.factor)
            else:
                factors.remove(spec.factor)
        self._recompute_node(node_id)

    def _recompute_link(self, link_id: int) -> None:
        capacity = float(self.network.link_capacities[link_id])
        for factor in self._link_factors.get(link_id, ()):
            capacity *= factor
        if self.link_failed[link_id]:
            capacity = 0.0
        self.state.set_link_capacity_id(link_id, capacity)

    def _recompute_node(self, node_id: int) -> None:
        capacity = float(self.network.node_capacities[node_id])
        for factor in self._node_factors.get(node_id, ()):
            capacity *= factor
        if self.node_failed[node_id]:
            capacity = 0.0
        self.state.set_node_capacity_id(node_id, capacity)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def record(
        self,
        time: float,
        spec: FaultSpec,
        onset: bool,
        flows_dropped: int,
        instances_evicted: int,
    ) -> None:
        """Append one telemetry log entry for an applied transition."""
        self.log.append(
            {
                "time": time,
                "fault": spec.kind.value,
                "phase": "onset" if onset else "recovery",
                "target": spec.target_label,
                "flows_dropped": flows_dropped,
                "instances_evicted": instances_evicted,
            }
        )
