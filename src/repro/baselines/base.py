"""Shared infrastructure for coordination policies.

A *coordination policy* is anything callable as ``policy(decision, sim) ->
action`` — the interface :meth:`repro.sim.simulator.Simulator.run` drives.
Both the trained :class:`~repro.core.agent.DistributedCoordinator` and the
hand-written baselines below implement it, so every algorithm in the
evaluation runs through the identical simulator.
"""

from __future__ import annotations

from typing import Optional

from repro.services.service import ServiceCatalog
from repro.sim.simulator import ACTION_PROCESS_LOCALLY, DecisionPoint, Simulator
from repro.topology.network import Network

__all__ = ["BasePolicy"]


class BasePolicy:
    """Common helpers for hand-written policies over one network."""

    def __init__(self, network: Network, catalog: ServiceCatalog) -> None:
        self.network = network
        self.catalog = catalog

    # ------------------------------------------------------------------

    def component_demand(self, decision: DecisionPoint) -> Optional[float]:
        """Resource demand of the flow's requested component (None when the
        flow is fully processed)."""
        flow = decision.flow
        if flow.fully_processed:
            return None
        service = self.catalog.service(flow.service)
        component = service.component_at(flow.component_index)
        return component.resources(flow.data_rate)

    def can_process_here(self, decision: DecisionPoint, sim: Simulator) -> bool:
        """True when the node has the free compute to process the flow."""
        demand = self.component_demand(decision)
        if demand is None:
            return False
        return sim.state.node_free(decision.node) + 1e-12 >= demand

    def forward_action(self, node: str, neighbor: str) -> int:
        """Action forwarding a flow from ``node`` to ``neighbor``."""
        return self.network.neighbors(node).index(neighbor) + 1

    def shortest_path_action(self, decision: DecisionPoint) -> int:
        """Action following the delay-shortest path toward the flow's egress.

        Returns 0 (process/keep locally) when already at the egress.
        """
        node, egress = decision.node, decision.flow.egress
        if node == egress:
            return ACTION_PROCESS_LOCALLY
        next_hop = self.network.next_hop(node, egress)
        if next_hop is None:
            # Unreachable egress: keep locally (flow will expire).
            return ACTION_PROCESS_LOCALLY
        return self.forward_action(node, next_hop)
